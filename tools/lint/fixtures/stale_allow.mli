val exact : float -> float -> bool
val half_used : float -> float -> bool
val quiet : int -> int
