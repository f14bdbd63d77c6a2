(** Unbalanced Tree Search (enumeration; paper §5.1, Olivier et al.).

    UTS counts the nodes of a synthetic tree whose shape is a pure
    function of a seed: each node carries a 64-bit state, its child
    count is drawn from the node's own hash (binomial variant: [m]
    children with probability [q], none otherwise; the root has [b0]
    children; no node at or below [max_depth] has any), and child
    states are hashes of the parent state.
    A node's draw is {!Yewpar_util.Splitmix.top53} of its state scaled
    to [\[0, 1)]: an immediate [int], so a node allocates nothing to
    decide its child count, and a leaf allocates nothing at all.
    The original benchmark uses SHA-1; we use splitmix64 mixing, which
    preserves the property that matters — the tree is deterministic,
    extremely irregular, and impossible to partition statically. *)

type params = {
  b0 : int;  (** Root branching factor. *)
  q : float;  (** Probability an inner node has children. *)
  m : int;  (** Child count when it does ([q·m < 1] keeps trees finite-ish). *)
  max_depth : int;  (** Hard depth cutoff guaranteeing finiteness. *)
  seed : int;  (** Tree identity. *)
}
(** Shape parameters of the binomial UTS tree. *)

val default : params
(** A mid-sized irregular tree (tens of thousands of nodes). *)

type node = { state : int64; depth : int }
(** A tree node: its hash state and depth. *)

val root : params -> node
(** The root node derived from the seed. *)

val num_children : params -> node -> int
(** The node's child count (pure). *)

val children : (params, node) Yewpar_core.Problem.generator
(** The Lazy Node Generator: every call on a node gives the same
    children. Each call is a one-pass cursor of its own. *)

val count_problem : params -> (params, node, int) Yewpar_core.Problem.t
(** Enumeration: count all nodes of the tree.
    @raise Invalid_argument if [q] is outside [\[0, 1\]] (or NaN), or
    [m] or [b0] is negative. *)

val max_depth_problem : params -> (params, node, node) Yewpar_core.Problem.t
(** Optimisation: find a deepest node (exercises Optimise without
    pruning). @raise Invalid_argument on the parameters
    {!count_problem} rejects. *)

(** The geometric UTS variant: branching decays exponentially with
    depth ([b(d) = b0 · decay^d]), giving trees that start very wide
    and rapidly become deep and sparse — the opposite imbalance of the
    binomial variant, and the other shape family of the original UTS
    benchmark. *)

type geo_params = {
  g_b0 : float;  (** Root branching factor. *)
  decay : float;  (** Per-level branching decay in (0, 1). *)
  g_max_depth : int;  (** Hard depth cutoff. *)
  g_seed : int;  (** Tree identity. *)
}

val geo_root : geo_params -> node
(** The root node derived from the seed. *)

val geo_children : (geo_params, node) Yewpar_core.Problem.generator
(** The geometric Lazy Node Generator. A node at depth [d] has
    [floor b(d)] children, plus one with probability [frac b(d)] by the
    node's draw. This standalone generator computes
    [b(d) = g_b0 *. (decay ** float_of_int d)] at every node. *)

val geo_count_problem : geo_params -> (geo_params, node, int) Yewpar_core.Problem.t
(** Enumeration: count all nodes of the geometric tree. Its generator
    is {!geo_children}'s, except at the first 64 depths, where two
    integer tables computed once here from the same b(d) give the
    count: [whole.(d) = floor b(d)] and [cut.(d) = ceil (frac b(d) ·
    2^53)], and a node has [whole.(d)] children plus one when its
    {!Yewpar_util.Splitmix.top53} is below [cut.(d)]. That is exactly
    [draw < frac b(d)], so the tree is bit-identical. Past the tables,
    and so whatever [g_max_depth] is, b(d) is computed per node. The
    tables are read-only once built, so workers on several domains
    share the problem safely.
    @raise Invalid_argument if [decay] is outside (0, 1), [g_b0] is
    negative or not finite, or [g_max_depth] is negative. A [decay]
    above 1 would grow the tree towards its depth cutoff, a search that
    effectively never ends. *)
