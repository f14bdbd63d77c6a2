(** 0/1 Knapsack by branch and bound (paper §5.1).

    Items are pre-sorted by profit density; a search-tree node is a
    partial selection together with the index of the next item that may
    be added, so children extend the selection with each later item
    that still fits (the combination-tree shape of the YewPar artifact's
    knapsack). The pruning bound is the Dantzig fractional relaxation:
    greedily fill the residual capacity with the densest remaining
    items, taking a fraction of the first that does not fit. The bound
    is sibling-monotone (children's bounds never increase in generator
    order), and both problems declare it, so one failed bound check
    cuts every later sibling before it is built. *)

type item = { profit : int; weight : int }
(** One item. Profits and weights are positive. *)

type instance
(** A knapsack instance: items (sorted by density), a capacity, and the
    suffix minima of the item weights, so a node that no later item
    fits is told in O(1). *)

val instance : items:item list -> capacity:int -> instance
(** Build an instance; items are re-sorted by non-increasing
    profit/weight density internally (compared exactly by
    cross-multiplying; ties by original position).
    @raise Invalid_argument on non-positive weights/profits/capacity,
    or a capacity of [max_int]. *)

val capacity : instance -> int
(** The weight limit. *)

val items : instance -> item array
(** The items in the internal (density) order. *)

type node = {
  next : int;  (** Index of the first item still considerable. *)
  profit : int;  (** Profit of the selection so far. *)
  weight : int;  (** Weight of the selection so far. *)
  taken : int list;  (** Chosen item indices (internal order), newest first. *)
}
(** A search-tree node: a feasible partial selection. *)

val root : instance -> node
(** The empty selection. *)

val children : (instance, node) Yewpar_core.Problem.generator
(** Children add item [i] for each [i >= next] that fits, densest
    first. A node that no item from [next] on fits gets [Seq.empty]
    itself, told in O(1) from the lightest such item; otherwise the
    cursor stops at the first index past which no item fits. *)

val fractional_bound : instance -> node -> int
(** Dantzig upper bound on the best total profit reachable below the
    node (admissible: never below the true optimum of the subtree). It
    walks the items from [next] to the first that does not fit and
    allocates nothing. Sibling-monotone: for children [a] before [b]
    of one node, [fractional_bound a >= fractional_bound b] (the proof
    is at [problem] in the implementation). *)

val problem : instance -> (instance, node, node) Yewpar_core.Problem.t
(** The optimisation problem: maximise total profit, with
    [~monotone_bound:true]. *)

val decision : instance -> target:int -> (instance, node, node option) Yewpar_core.Problem.t
(** The decision variant: find any selection with profit at least
    [target], short-circuiting at the first witness; also
    [~monotone_bound:true]. *)

val parse_string : string -> instance
(** Parse the classic knapsack text format: a header line
    ["n capacity"] followed by [n] lines ["profit weight"].
    @raise Failure on malformed input, including a non-positive
    capacity, profit or weight, or a capacity of [max_int]. *)

val to_string : instance -> string
(** Render in the same format (items in internal density order). *)

val exact_dp : instance -> int
(** Reference optimum by dynamic programming in O(items × capacity) —
    the validation oracle for tests. *)

(** Pisinger-style random instance classes (stand-ins for the standard
    knapsack benchmark instances; see DESIGN.md). *)
module Generate : sig
  val uncorrelated : seed:int -> n:int -> max_value:int -> instance
  (** Profits and weights independently uniform in [\[1, max_value\]]. *)

  val weakly_correlated : seed:int -> n:int -> max_value:int -> instance
  (** Weights uniform; profit = weight ± 10%, clamped positive. *)

  val strongly_correlated : seed:int -> n:int -> max_value:int -> instance
  (** Weights uniform; profit = weight + max_value/10 — the classic
      hard class. *)

  val subset_sum : seed:int -> n:int -> max_value:int -> instance
  (** Profit = weight: the fractional bound degenerates to the residual
      capacity, so almost nothing prunes — the hardest class for branch
      and bound, exercising raw tree throughput. *)
end
