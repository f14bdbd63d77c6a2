(** Order-preserving workpools (paper §4.3).

    Standard deque-based work-stealing breaks heuristic search order
    (§2.3); YewPar instead uses bespoke workpools. Three policies are
    provided:

    - {!Depth} (the paper's order-preserving pool): tasks are bucketed
      by the depth of their subtree root. {e Local} workers pop from
      the {b deepest} non-empty bucket, FIFO (spawn = heuristic order)
      within the bucket — so a locality burrows depth-first and
      incumbents improve as fast as they do sequentially. {e Thieves}
      steal from the {b shallowest} bucket — subtrees close to the root
      are the largest, minimising steal traffic.
    - {!Priority} (the best-first extension the paper names in §4):
      local pops take the task with the {b highest priority} (e.g. the
      optimistic bound); thieves also take the highest priority.
    - {!Fifo}: a plain global queue. It is the Ordered skeleton's pool
      (its tasks run in spawn, i.e. heuristic, order), and the
      simulator's ablation study uses it in place of {!Depth} to show
      why the bespoke pools matter (breadth-first floods of speculative
      tasks under deep cutoffs).

    Not thread-safe: callers serialise access (the simulator is single
    threaded; [Two_tier] guards each of its pools with a mutex). *)

type policy =
  | Depth  (** Deepest-first locally, shallowest-first steals. *)
  | Priority  (** Highest-priority first, for best-first search. *)
  | Fifo  (** Plain FIFO: Ordered's pool, and the [Depth] ablation. *)

type 'a t
(** A pool of tasks. *)

val create : ?policy:policy -> unit -> 'a t
(** [create ()] is an empty pool with the {!Depth} policy. *)

val size : 'a t -> int
(** Number of queued tasks. *)

val is_empty : 'a t -> bool
(** [is_empty p] is [size p = 0]. *)

val push : 'a t -> depth:int -> ?priority:int -> 'a -> unit
(** Queue a task whose subtree root sits at [depth] (>= 0), with an
    optional priority (used by the {!Priority} policy only; default 0;
    may be negative). *)

val pop_local : 'a t -> 'a option
(** Take a task for a local worker: deepest-first ({!Depth}),
    highest-priority ({!Priority}), or oldest ({!Fifo}); FIFO among
    equals in every policy. *)

val pop_steal : 'a t -> 'a option
(** Take a task for a thief: shallowest-first ({!Depth}), otherwise as
    {!pop_local}. *)
