(** CSV export of figures and raw tables. *)

val of_figure : Figure.t -> string
(** Long-format CSV with header [series,x,y] — one row per point. *)

val save_figure : path:string -> Figure.t -> unit
(** Write {!of_figure} output to a file. *)

(* lint: allow L14 — no program calls it; test_csv pins it *)
val of_table : header:string list -> float list list -> string
(** Generic numeric table, one list per row.
    @raise Invalid_argument when a row length differs from the header. *)
