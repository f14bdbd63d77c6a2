(** Shared search knowledge (incumbents and bounds).

    Optimisation and decision skeletons share the best objective value
    found so far; the pruning predicate reads it, node processing writes
    it. The value is one atomic word, {!field-best}, that every reader
    loads inline; the witness sits behind it in a compare-and-swap cell.
    A store is shared by the domains of a run (shared memory), copied
    per locality and refreshed by broadcast events (simulator), or has
    its word raised by a coordinator's floors as well as by its own
    witnesses (distributed) — the paper's observation that a stale local
    bound only costs pruning opportunities, never correctness (§4.3). *)

type 'node t = {
  best : int Atomic.t;
      (** The best objective known here ([min_int] initially): the
          value of the stored witness, or a higher floor adopted from
          elsewhere ({!adopt_floor}). It never falls, and it is raised
          after the witness is stored, so a reader that loads it and
          then {!field-best_node} sees a witness worth at least what it
          loaded. *)
  best_node : unit -> (int * 'node) option;
      (** The stored witness with the value it was submitted at, read in
          one atomic load, if any submission succeeded. *)
  submit : 'node -> int -> bool;
      (** [submit n v] offers incumbent [n] with objective [v]; returns
          [true] iff [v] strictly beat the stored witness's value. *)
}

val best_obj : 'node t -> int
(** [Atomic.get k.best]. *)

val make_atomic : unit -> 'node t
(** A store safe to share across domains. [submit] reads the witness
    cell and runs its compare-and-swap only on an improvement. *)

val adopt_floor : 'node t -> int -> unit
(** [adopt_floor k v] raises {!field-best} to at least [v] without a
    witness: a bound found elsewhere. {!field-best_node} and [submit]
    compare with the stored witness only. *)
