(** Fixed-capacity bitsets over packed machine words.

    The OCaml analogue of the paper's [std::bitset<N>]: vertex sets of
    the clique and subgraph-isomorphism solvers are bitsets so that set
    intersection, population count and membership run word-parallel.
    Capacity is fixed at creation; all binary operations require equal
    capacities. *)

type t
(** A mutable set of integers in [\[0, capacity)]. *)

val create : int -> t
(** [create n] is the empty set with capacity [n].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int
(** The capacity fixed at creation. *)

val copy : t -> t
(** An independent copy. *)

val add : t -> int -> unit
(** [add s i] puts [i] into [s]. @raise Invalid_argument if out of range. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i] from [s]. @raise Invalid_argument if out of range. *)

val mem : t -> int -> bool
(** Membership test. @raise Invalid_argument if out of range. *)

val cardinal : t -> int
(** Population count. Word-parallel: a constant-step SWAR popcount per
    word, whatever the number of set bits. *)

val is_empty : t -> bool
(** [is_empty s] is [cardinal s = 0], without counting. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] replaces [dst] with [dst ∩ src].
    @raise Invalid_argument on capacity mismatch. *)

val union_into : t -> t -> unit
(** [union_into dst src] replaces [dst] with [dst ∪ src].
    @raise Invalid_argument on capacity mismatch. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] replaces [dst] with [dst \ src].
    @raise Invalid_argument on capacity mismatch. *)

val inter : t -> t -> t
(** Fresh intersection. *)

val equal : t -> t -> bool
(** Extensional equality (capacities must match). *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val first : t -> int
(** Smallest element, or [-1] if empty. Word-parallel: it skips empty
    words and finds the lowest set bit of a word in constant steps. *)

val next_from : t -> int -> int
(** [next_from s i] is the smallest element [>= i], or [-1]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. [s] must not be modified
    during the iteration. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over elements in increasing order. *)

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is the capacity-[n] set of [xs]. *)

val clear : t -> unit
(** Empty the set in place. *)

val fill_upto : t -> int -> unit
(** [fill_upto s k] adds all of [0 .. k-1] (clamped to the capacity),
    a whole word at a time. *)

val greedy_colour :
  t -> neighbours:(int -> t) -> order:int array -> colours:int array -> int
(** [greedy_colour p ~neighbours ~order ~colours] greedily colours the
    subgraph induced by [p], where [neighbours v] is the adjacency row
    of vertex [v] (the colouring of McCreesh and Prosser's MCSa,
    word-parallel). Classes are built
    one after another: each takes the still-uncoloured vertices in
    increasing index order, skipping any that neighbours a vertex
    already in the class. It writes the vertices in colouring order to
    [order.(0 .. n-1)], the colour of [order.(i)] (numbered from 1) to
    [colours.(i)], and returns [n = cardinal p]. Colours are
    non-decreasing along [order], so [colours.(i)] is also the number of
    colours used on [order.(0 .. i)]. [p] is not modified; the call
    allocates its two scratch word arrays (the uncoloured vertices and
    the class being built) once, not once per class.
    @raise Invalid_argument if [order] or [colours] is shorter than
    [cardinal p], or if a row's capacity differs from [p]'s. *)

val pp : Format.formatter -> t -> unit
(** Print as [{e1, e2, ...}]. *)
