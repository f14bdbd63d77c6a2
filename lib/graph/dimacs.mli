(** DIMACS clique-format ([.clq]) graph I/O.

    The paper's clique instances come from the DIMACS implementation
    challenge; this module reads and writes the standard
    [p edge N M] / [e u v] format (1-based vertices) so externally
    obtained instances drop straight into the solvers. *)

val parse_string : string -> Graph.t
(** Parse DIMACS text. Comment lines ([c ...]) are skipped, [e u v]
    lines add edges.
    @raise Failure on malformed input (missing problem line, negative
    vertex count, vertex out of range, non-integer fields). *)

val parse_file : string -> Graph.t
(** Like {!parse_string}, reading from a file path. *)

val to_string : Graph.t -> string
(** Render a graph in DIMACS format ([parse_string (to_string g)] is
    isomorphic — indeed identical — to [g]). *)
