(** Deterministic splittable pseudo-random numbers (splitmix64).

    All randomness in the reproduction — instance generation, victim
    selection in the simulated scheduler, interleaving choices in the
    executable semantics, UTS tree shapes — flows from explicitly-seeded
    splitmix64 streams, so every experiment is replayable bit-for-bit. *)

type gen
(** A mutable pseudo-random stream. *)

val of_seed : int -> gen
(** [of_seed s] is a fresh stream determined entirely by [s]. *)

val of_string_seed : string -> gen
(** Stream seeded by hashing a string (for named instances). *)

val copy : gen -> gen
(** Independent copy with the same current state. *)

val split : gen -> gen
(** [split g] advances [g] and returns a statistically independent
    stream; repeated splits yield independent streams (used for
    reproducible per-task randomness). *)

val next_int64 : gen -> int64
(** Next raw 64-bit output. *)

val int : gen -> int -> int
(** [int g n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : gen -> float
(** Uniform in [\[0, 1)]. *)

val bool : gen -> bool
(** A fair coin flip. *)

val mix64 : int64 -> int64
(** The stateless splitmix64 finaliser: a high-quality 64-bit mixer.
    [mix64] is the hash underlying {!hash2}. *)

val top53 : int64 -> int
(** [top53 h] is the top 53 bits of [mix64 h], as a non-negative
    immediate [int] below [2{^53}]: a draw that allocates nothing.
    Scaled by [2{^-53}] it is a uniform float in [\[0, 1)], exactly
    [Int64.to_float (Int64.shift_right_logical (mix64 h) 11) *. 0x1p-53];
    UTS draws each node's child count this way. *)

val hash2 : int64 -> int -> int64
(** [hash2 h i] deterministically combines a node identity [h] with a
    child index [i]; the basis of UTS's reproducible tree shapes. *)
