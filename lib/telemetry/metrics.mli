(** Metrics registry with Prometheus text exposition.

    Counters, gauges and fixed-bucket histograms, registered by name
    and rendered in the Prometheus text exposition format (v0.0.4):
    [# HELP]/[# TYPE] headers, cumulative [_bucket{le="..."}] lines,
    [_sum] and [_count]. Registration order is preserved in the
    output.

    The registry is not thread-safe: the runtimes record into
    per-worker ring buffers ({!Recorder}) on the hot path and derive a
    registry from the merged trace after the join
    ({!Telemetry.metrics}), so concurrent observation never happens.

    Histogram buckets default to a log scale built from the 1-2-5
    mantissa series ({!buckets_125}), matching latency work spanning
    microseconds to seconds. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> string -> counter
(** Register (or retrieve, if already registered) a counter.
    @raise Invalid_argument if [name] exists with a different type. *)

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> ?buckets:float list -> string -> histogram
(** [buckets] are upper bounds, strictly increasing; an implicit
    [+Inf] bucket is always appended. Defaults to
    [buckets_125 ~lo:1e-6 ~hi:10.]. *)

val inc : ?by:int -> counter -> unit

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** Cumulative [(upper_bound, count)] pairs, ending with [(infinity,
    total count)] — exactly the [_bucket] lines of the exposition. *)

val buckets_125 : lo:float -> hi:float -> float list
(** The 1-2-5 log-scale series covering [lo..hi]: powers of ten times
    1, 2 and 5, starting at the largest such value [<= lo] and ending
    at the smallest [>= hi]. [buckets_125 ~lo:1e-2 ~hi:1.] is
    [0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.]. *)

val buckets_pow2 : hi:int -> float list
(** Powers of two [1; 2; 4; ...] up to the first [>= hi] — a log scale
    for discrete sizes such as pool depths. *)

val to_prometheus : t -> string
(** Render every registered metric, registration order. *)
