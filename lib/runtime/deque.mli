(** Bounded Chase-Lev work-stealing deque: the scheduler's Tier-1
    fast path.

    Exactly one domain — the {e owner} — may call {!push} and {!pop};
    any domain may call {!steal}. The owner works LIFO at the bottom
    (deepest-first, keeping the search depth-first); thieves take the
    oldest entry at the top (shallowest-first, the biggest subtrees),
    matching the pop-local/pop-steal orders of {!Two_tier}'s overflow
    tier.

    The deque is bounded: a full {!push} refuses instead of growing,
    and the caller sheds work to the order-preserving overflow tier.
    All operations are lock-free; none of them blocks. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** A fresh empty deque. [capacity] (default 256) is rounded up to a
    power of two. @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val size : 'a t -> int
(** Approximate element count — exact when quiescent, momentarily
    stale under concurrent operations. Never negative. *)

val is_empty : 'a t -> bool
(** [size t = 0]; the same staleness caveat applies. *)

val push : 'a t -> 'a -> bool
(** Owner only. Queue at the bottom; [false] means the deque is full
    and the element was {e not} queued (shed to the overflow tier
    instead). *)

val pop : 'a t -> 'a option
(** Owner only. Take the most recently pushed element (LIFO). [None]
    when empty — including when a thief won the race for the last
    element. *)

val steal : 'a t -> 'a option
(** Any domain. Take the oldest element (FIFO end). [None] when empty
    or when the CAS lost a race — callers should move to the next
    victim rather than retry the same one in a tight loop. *)
