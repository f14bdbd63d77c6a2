(** N-Queens (enumeration and decision).

    Not one of the paper's seven applications, but the canonical search
    demo every framework release ships: place [n] queens on an [n × n]
    board with none attacking another. A search-tree node is a
    consistent placement of queens on the first [level] rows, with the
    attacked columns/diagonals tracked as integer masks so consistency
    checks are O(1); children place the next row's queen left to right.

    Solution counts are a classic validation sequence (OEIS A000170):
    1, 0, 0, 2, 10, 4, 40, 92, 352, 724, … *)

type instance
(** Board size. *)

val instance : n:int -> instance
(** [instance ~n] is the [n]-queens problem.
    @raise Invalid_argument if [n < 1] or [n > 30] (mask width). *)

val size : instance -> int
(** The board size. *)

type node = {
  level : int;  (** Rows already filled. *)
  columns : int list;  (** Chosen column per row, newest first. *)
  cols_mask : int;  (** Attacked columns. *)
  diag1_mask : int;  (** Attacked anti-diagonals (shift left per row). *)
  diag2_mask : int;  (** Attacked main diagonals (shift right per row). *)
}
(** A consistent partial placement. *)

val root : instance -> node
(** The empty board. *)

val children : (instance, node) Yewpar_core.Problem.generator
(** Consistent placements of the next row's queen, leftmost column
    first. The generator scans only the free columns, the zero bits of
    [cols_mask lor diag1_mask lor diag2_mask] below [n], lowest bit
    first, and finds each column's index from its isolated bit. An
    attacked column costs nothing, and a node with no free column
    allocates nothing. *)

val count_solutions : instance -> (instance, node, int) Yewpar_core.Problem.t
(** Enumeration: the number of complete placements. *)

val find_placement : instance -> (instance, node, node option) Yewpar_core.Problem.t
(** Decision: any complete placement, or [None]. *)

val placement_of : instance -> node -> int array
(** [placement_of inst node] maps row → column for a complete witness.
    @raise Invalid_argument on partial placements. *)

val is_valid_placement : instance -> int array -> bool
(** Check pairwise non-attack of a full placement. *)

val known_counts : int array
(** OEIS A000170 for n = 1 … 12 (index 0 = n=1). *)
