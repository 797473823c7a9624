(** CSV export of figures. *)

val of_figure : Figure.t -> string
(** Long-format CSV with header [series,x,y] — one row per point. *)

val save_figure : path:string -> Figure.t -> unit
(** Write {!of_figure} output to a file. *)
