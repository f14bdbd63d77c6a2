(** Simulated-cluster topology and cost model.

    The paper evaluates YewPar on a Beowulf cluster (17 localities ×
    15 workers, HPX runtime). This container has a single core, so the
    reproduction replaces wall-clock parallelism with a deterministic
    discrete-event simulation whose cost model captures the quantities
    the paper's coordination behaviour depends on: per-node work, task
    management overhead, intra- vs inter-locality steal latency, and
    the latency of broadcasting improved bounds. All costs are in
    virtual seconds. *)

type topology = {
  localities : int;  (** Number of physical machines. *)
  workers_per_locality : int;  (** Search worker threads per machine. *)
}

val topology : localities:int -> workers:int -> topology
(** Convenience constructor. @raise Invalid_argument on non-positive
    values. *)

val n_workers : topology -> int
(** Total workers. *)

type costs = {
  node_cost : float;
      (** Virtual time to generate-and-process one search-tree node
          (also charged for a failed bound check on a pruned child). *)
  task_overhead : float;
      (** Charged when a worker picks a task from a workpool
          (scheduling, deserialisation). *)
  spawn_cost : float;  (** Charged per task pushed by a spawning worker. *)
  steal_local_latency : float;
      (** One-way latency of an intra-locality steal message. *)
  steal_remote_latency : float;
      (** One-way latency of an inter-locality steal message. *)
  bound_broadcast_latency : float;
      (** Delay before an improved incumbent bound reaches other
          localities (PGAS broadcast, §4.3). *)
  batch : int;
      (** Engine steps executed per simulation event; bounds how stale a
          steal-request response can be. *)
  fifo_pool : bool;
      (** Ablation knob: degrade the depth-aware order-preserving
          workpools (deepest-first locally, shallowest-first for
          steals) to plain FIFO queues, losing the depth-first bias
          that keeps speculative task floods in check. *)
}

val default : costs
(** HPX-like YewPar cost preset (1 µs nodes, heavier task management). *)

val openmp_like : costs
(** Lightweight shared-memory preset used as the hand-coded OpenMP
    comparator in Table 1: cheaper task management, same node cost. *)
