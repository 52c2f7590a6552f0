(** Fixed-width ASCII tables and bar charts for the experiment harness.

    The harness prints every paper table/figure as text; these helpers keep
    the output aligned and readable without any external plotting
    dependency. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the rows out under the header with columns
    sized to the widest cell. [align] gives per-column alignment and
    defaults to left for the first column and right for the rest, which
    suits "benchmark | number | number" tables. *)

val print : ?align:align list -> header:string list -> string list list -> unit
(** [print] is [render] followed by [print_string]. *)

val grouped_bar_chart :
  ?width:int ->
  group_labels:string list ->
  (string * float list) list ->
  string
(** [grouped_bar_chart ~group_labels rows] renders, for each [(label,
    values)] row, one bar per group (e.g. Parallaft vs RAFT side by side),
    sharing a common scale across the whole chart. [group_labels] names the
    bars within a group and must match the length of every [values]
    list. A negative value is not drawn, but each bar is labelled with
    its signed value. *)

val stacked_bar_chart :
  ?width:int ->
  component_labels:string list ->
  (string * float list) list ->
  string
(** [stacked_bar_chart ~component_labels rows] renders one stacked bar per
    row, each component drawn with a distinct fill character; used for the
    Figure 6 overhead breakdown. A negative component is not drawn, but
    each bar is labelled with the sum of all its components. *)
