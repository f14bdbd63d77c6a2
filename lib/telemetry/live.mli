(** The live view of a running search ([--monitor-port]): [GET /metrics]
    and [GET /status], both rendered from one field list.

    A runtime declares each live number once, as a field read at
    scrape time on the monitor's HTTP domain, concurrently with the
    search: a read must touch only word-sized cells or an immutable
    record behind one pointer, so a scrape may be stale but never
    torn. Field [F] is the gauge [yewpar_live_F] (each scrape fills a
    fresh {!Metrics} registry) and the [/status] key [F] of
    [{schema_version, runtime, uptime, <fields>, <extra>, progress}].
    [/metrics] adds [yewpar_live_uptime_seconds] and the
    [yewpar_progress_*] gauges. A non-finite value renders as [-1]. *)

type field

val int : ?key:string -> string -> string -> (unit -> int) -> field
(** [int name help read]; [key] (default [name]) is the [/status] key,
    for a gauge name that means something else there. *)

val float : string -> string -> (unit -> float) -> field

val incumbent : string -> string -> (unit -> int) -> field
(** An objective, [min_int] until there is one: [null] in [/status]
    and no gauge sample until then. *)

val start :
  port:int ->
  runtime:string ->
  started:float ->
  ?progress:(unit -> Progress.report) ->
  ?extra:(unit -> (string * Analyze.json) list) ->
  field list ->
  Http_export.t
(** Serve both routes on [127.0.0.1:port]. [uptime] counts from
    [started]; [progress] is read once per scrape; [extra] adds
    [/status]-only keys. *)
