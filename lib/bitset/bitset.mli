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
(** An independent copy. A set of one to four words (capacity at most
    252) is built as an array literal, allocated inline with no C call;
    a longer one through [Array.copy]. *)

val validate : t -> unit
(** [validate s] returns if [s] is a set this interface could have
    built: its word count is its capacity's, and no bit sits at or
    above its capacity. A set decoded by [Marshal] from a corrupt or
    version-skewed message can be neither, and then the other
    operations count, list and combine bits beyond the capacity. A
    decoder that builds sets calls this once per set.
    @raise Invalid_argument ["Bitset.validate: malformed set"]
    otherwise. *)

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

val equal : t -> t -> bool
(** Extensional equality (capacities must match). *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val first : t -> int
(** Smallest element, or [-1] if empty. Word-parallel: it skips empty
    words and indexes the lowest set bit of a word with one multiply
    and one table read (a de Bruijn lookup), whatever the bit. Allocates
    nothing. *)

val next_from : t -> int -> int
(** [next_from s i] is the smallest element [>= i], or [-1]. It masks
    off the bits below [i] in [i]'s word, skips empty words, and
    indexes the lowest set bit as {!first} does. Allocates nothing. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order, a word at a time: each
    element's index is found with the de Bruijn lookup of {!first}, and
    its bit is cleared with [x land (x - 1)]. [s] must not be modified
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

(** Bit matrices: [rows] sets of one capacity, stored row-major in one
    word array. A graph's adjacency, which {!greedy_colour} reads a row
    at a time with no per-row record or check. *)
module Matrix : sig
  type set := t

  type t
  (** A mutable matrix of bits, row [r] being a set of integers in
      [\[0, capacity)]. *)

  val create : rows:int -> int -> t
  (** [create ~rows n] is [rows] empty rows of capacity [n].
      @raise Invalid_argument if [rows] or [n] is negative. *)

  val rows : t -> int
  (** The number of rows fixed at creation. *)

  val add : t -> int -> int -> unit
  (** [add m r i] puts [i] into row [r].
      @raise Invalid_argument if [r] or [i] is out of range. *)

  val mem : t -> int -> int -> bool
  (** [mem m r i] is whether row [r] holds [i].
      @raise Invalid_argument if [r] or [i] is out of range. *)

  val cardinal : t -> int -> int
  (** [cardinal m r] is the population count of row [r].
      @raise Invalid_argument if [r] is out of range. *)

  val row : t -> int -> set
  (** [row m r] is a fresh copy of row [r]; mutating it leaves [m]
      unchanged. @raise Invalid_argument if [r] is out of range. *)

  val inter_row : set -> t -> int -> set
  (** [inter_row s m r] is a fresh [s ∩ row r]. A set of one to four
      words is built as an array literal, allocated inline with no C
      call; a longer one is an [Array.copy] of [s] ANDed in place.
      @raise Invalid_argument if [r] is out of range, on capacity
      mismatch, or if [s]'s word count is not the matrix's stride (a
      malformed set, as [greedy_colour] refuses). *)
end

val greedy_colour : t -> adj:Matrix.t -> int array
(** [greedy_colour p ~adj] greedily colours the subgraph induced by
    [p], where row [v] of [adj] is the adjacency of vertex [v] (the
    colouring of McCreesh and Prosser's MCSa, word-parallel). Classes
    are built one after another: each takes the still-uncoloured
    vertices in increasing index order, skipping any that neighbours a
    vertex already in the class. [p] is not modified.

    The result holds [n = cardinal p] entries, one per vertex in
    colouring order. An entry packs the vertex into its low 30 bits and
    the vertex's colour, numbered from 1, above them; callers decode it
    with {!entry_vertex} and {!entry_colour}, not by the layout. Colours
    are non-decreasing along the order, so the colour of entry [i] is
    also the number of colours used on the first [i + 1] vertices.

    The matrix's stride (the word count of a set of [p]'s capacity)
    selects one of two kernels, after the guard:
    - up to four words (capacity at most 252), the uncoloured and the
      colourable words live in locals, and the call allocates only its
      result ([n + 1] words, with the header);
    - past four words, they live in one scratch block of [2 * stride]
      words, filled from [p] by the loop that counts it, and the call
      allocates that block too ([2 * stride + 1] words). A class's
      vertices leave the uncoloured words once per word.
    Both give the same entries in the same order. Their loops read and
    write without bounds checks, behind a guard of constant cost
    checked once per call.
    @raise Invalid_argument if [adj] does not have [capacity p] rows of
    capacity [capacity p], if the capacity exceeds
    {!max_colour_capacity}, or if [p] or [adj] is malformed: [p]'s word
    count is not the matrix's stride, the matrix's word array does not
    hold rows × stride words, or [p] holds a bit at or above its
    capacity. Such values cannot be built through this interface, but a
    set decoded by [Marshal] from a corrupt or version-skewed message
    can be one. *)

val max_colour_capacity : int
(** The largest capacity {!greedy_colour} accepts: [2^30]. Its
    vertices and colours fit an entry's fields. *)

val colour_entry : vertex:int -> colour:int -> int
(** The entry {!greedy_colour} writes for [vertex] in colour [colour],
    for [0 <= vertex < max_colour_capacity] and
    [0 <= colour <= max_colour_capacity]. *)

val entry_vertex : int -> int
(** The vertex of a {!greedy_colour} entry. *)

val entry_colour : int -> int
(** The colour of a {!greedy_colour} entry, numbered from 1. *)

val pp : Format.formatter -> t -> unit
(** Print as [{e1, e2, ...}]. *)
