(** Maximum Clique and k-Clique (paper §5.1, Listing 1).

    A search-tree node is a clique plus the bitset of candidate vertices
    that extend it; children add one candidate each, ordered by the
    greedy-colouring heuristic of McCreesh & Prosser's MCSa1 algorithm,
    whose colour count also provides the branch-and-bound upper bound.
    This is a faithful OCaml rendition of the paper's Listing 1. *)

type node = {
  clique : int list;
      (** Vertices of the current clique, newest first (a persistent
          list shared with the parent, so extending is O(1) — the one
          deliberate deviation from Listing 1's bitset field; see
          DESIGN.md on overheads). *)
  size : int;  (** [List.length clique], cached. *)
  candidates : Yewpar_bitset.Bitset.t;
      (** Vertices adjacent to every clique member. *)
  bound : int;
      (** Greedy-colouring bound on how many candidates can still join. *)
}
(** A search-tree node (the paper's [Node] struct). *)

val root : Yewpar_graph.Graph.t -> node
(** The empty clique with every vertex as candidate. *)

val children : (Yewpar_graph.Graph.t, node) Yewpar_core.Problem.generator
(** The Lazy Node Generator: greedily colours the candidate set and
    yields extensions best-candidate (highest colour) first. *)

val upper_bound : node -> int
(** [size + bound] — the pruning bound of Listing 1's [upperBound]. *)

val max_clique :
  Yewpar_graph.Graph.t ->
  (Yewpar_graph.Graph.t, node, node) Yewpar_core.Problem.t
(** The optimisation problem: find a maximum clique. *)

val k_clique :
  Yewpar_graph.Graph.t -> k:int ->
  (Yewpar_graph.Graph.t, node, node option) Yewpar_core.Problem.t
(** The decision problem: find a clique of [k] vertices if one exists. *)

val vertices_of : node -> int list
(** The clique's vertices in increasing order. *)

(** A hand-coded sequential solver with no generator/skeleton
    indirection — the OCaml stand-in for the specialised C++
    implementation on the left of Table 1 (see DESIGN.md). *)
module Specialised : sig
  val max_clique_size : Yewpar_graph.Graph.t -> int * int list
  (** [(size, vertices)] of a maximum clique, by direct recursive
      branch and bound. Per call it colours the candidates and copies
      them once; it tests the bound before it builds a child, and
      builds one fresh candidate set ([Bitset.Matrix.inter_row]) per
      child it enters. It shares the colouring, [copy] and [inter_row]
      with {!children}. *)
end
