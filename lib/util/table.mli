(** Plain-text table rendering for benchmark output.

    Renders the rows of Tables 1 and 2 and the series of Figure 4 in the
    same layout as the paper, column-aligned for terminals. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a table with one space-padded column
    per header entry. The first column is left-aligned, the rest
    right-aligned (matching numeric tables). Rows shorter than the header
    are padded with empty cells. *)

val fpercent : float -> string
(** Format a percentage with two decimals and sign, e.g. ["-5.54"]. *)

val fspeedup : float -> string
(** Format a speedup factor with two decimals, e.g. ["91.74"]. *)
