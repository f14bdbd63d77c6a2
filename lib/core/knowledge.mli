(** Shared search knowledge (incumbents and bounds).

    Optimisation and decision skeletons share the best objective value
    found so far; the pruning predicate reads it, node processing writes
    it. The interface is a record of closures so each runtime supplies
    its own store: a plain ref (sequential), an atomic with a CAS-max
    loop (Domain-parallel), or per-locality copies refreshed by broadcast
    events (simulator) — the paper's observation that a stale local bound
    only costs pruning opportunities, never correctness (§4.3). *)

type 'node t = {
  best_obj : unit -> int;
      (** Current best objective known here ([min_int] initially). *)
  best_node : unit -> 'node option;
      (** A witness for {!best_obj}, if any submission happened. *)
  submit : 'node -> int -> bool;
      (** [submit n v] offers incumbent [n] with objective [v]; returns
          [true] iff it strictly improved the stored value. *)
}

val make_ref : unit -> 'node t
(** Single-threaded store backed by refs. *)

val make_atomic : unit -> 'node t
(** Thread-safe store: lock-free compare-and-swap maximisation, safe to
    share across domains. *)

val best : 'node t -> (int * 'node) option
(** The stored incumbent with its value, if any submission happened.
    Only meaningful on a store whose {!best_obj} is its witness's value
    (not one reading a foreign floor). *)
