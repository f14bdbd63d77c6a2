(** Unbalanced Tree Search (enumeration; paper §5.1, Olivier et al.).

    UTS counts the nodes of a synthetic tree whose shape is a pure
    function of a seed: each node carries a 64-bit state, its child
    count is drawn from the node's own hash (binomial variant: [m]
    children with probability [q], none otherwise; the root always has
    [b0] children), and child states are hashes of the parent state.
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
(** The Lazy Node Generator (pure, reproducible). *)

val count_problem : params -> (params, node, int) Yewpar_core.Problem.t
(** Enumeration: count all nodes of the tree. *)

val max_depth_problem : params -> (params, node, node) Yewpar_core.Problem.t
(** Optimisation: find a deepest node (exercises Optimise without
    pruning). *)

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
(** The geometric Lazy Node Generator. *)

val geo_count_problem : geo_params -> (geo_params, node, int) Yewpar_core.Problem.t
(** Enumeration: count all nodes of the geometric tree. *)
