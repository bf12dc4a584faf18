(** ASCII tables and charts for benchmark/figure output.

    [modchecker figures] prints every reproduced paper figure as a table
    of series rows plus a rough inline chart, so the shape (linear /
    nonlinear / flat) is visible directly in its output. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed table with column widths fitted
    to content. *)

val chart :
  ?width:int ->
  ?height:int ->
  title:string ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
(** [chart ~title ~x_label ~y_label series] plots the named series on a
    shared scale using one glyph per series. *)
