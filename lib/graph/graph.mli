(** Undirected graphs as adjacency bitsets.

    The search space of the clique and subgraph-isomorphism solvers:
    row [v] of one {!Yewpar_bitset.Bitset.Matrix} is the bitset of
    [v]'s neighbours. That is the paper's Listing 1 representation
    ([std::vector<VertexSet>]), with the rows packed into one word
    array so the colouring kernel reads them without indirection. *)

type t
(** An undirected simple graph on vertices [0 .. n_vertices - 1]. *)

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val n_vertices : t -> int
(** Number of vertices. *)

val n_edges : t -> int
(** Number of (undirected) edges. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the undirected edge [{u,v}]; self-loops are
    ignored. @raise Invalid_argument if a vertex is out of range. *)

val has_edge : t -> int -> int -> bool
(** Adjacency test. *)

val neighbours : t -> int -> Yewpar_bitset.Bitset.t
(** A fresh copy of a vertex's adjacency bitset: mutating it leaves the
    graph unchanged. @raise Invalid_argument if the vertex is out of
    range. *)

val degree : t -> int -> int
(** Number of neighbours. *)

val adjacency : t -> Yewpar_bitset.Bitset.Matrix.t
(** The graph's own adjacency matrix, not a copy: row [v] holds [v]'s
    neighbours. It is what {!Yewpar_bitset.Bitset.greedy_colour} and
    {!Yewpar_bitset.Bitset.Matrix.inter_row} read in the clique solvers'
    inner loop. Read it only: an edge added through it bypasses
    {!add_edge}'s symmetry and edge count. *)

val density : t -> float
(** [n_edges / (n choose 2)]; [0.] for graphs with fewer than 2 vertices. *)

val vertices : t -> int list
(** [0; 1; ...; n-1]. *)

val is_clique : t -> int list -> bool
(** Whether the given vertices are pairwise adjacent (and distinct). *)

val complement : t -> t
(** The complement graph (no self-loops). *)

val induced : t -> int list -> t
(** [induced g vs] is the subgraph induced by [vs]; vertex [i] of the
    result is [List.nth vs i]. *)

val degeneracy_order : t -> int array
(** Vertices in non-increasing degree order — the static search-order
    heuristic used by the clique node generator. *)
