(** What the scheduler ({!Two_tier}) queues: the task record, and the
    overflow-tier order each coordination wants. *)

type 'n task = {
  tag : int;
      (** Substrate-specific task identity: on the shm runtime the
          task's own span when recording ([0] otherwise), the owning
          coordinator lease id on dist. Spawned subtasks are created
          with their parent's tag (which the shm scheduler replaces
          by a fresh span). *)
  node : 'n;
  depth : int;
}

val policy_for : Yewpar_core.Coordination.t -> Yewpar_core.Workpool.policy
(** The pool policy a coordination wants: [Priority] for best-first,
    [Fifo] for Ordered (its tasks run in spawn, i.e. heuristic,
    order), [Depth] otherwise. *)
