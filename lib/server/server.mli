(** [yewpar serve]: a multi-tenant search job server.

    A long-lived daemon that pre-forks a persistent fleet of locality
    processes once, then accepts concurrent search jobs over HTTP/JSON
    and runs each on a disjoint subset of the fleet — the distributed
    runtime's transport, leases and exactness guarantees
    ({!Yewpar_dist.Coordinator}), without the fork-per-run cost of
    [yewpar solve --runtime dist].

    {2 Architecture}

    - The fleet ([localities + max_respawns] interchangeable slots) is
      forked {e before} any domain is spawned — OCaml 5 forbids
      forking afterwards — each child looping in
      {!Yewpar_dist.Locality.serve}, idle between jobs.
    - Every running job gets its own {!Yewpar_dist.Coordinator.run} in
      its own thread over its own slots, so per-job workpools, leases,
      incumbents and stats are isolated by construction; a job's
      counters match what a solo [yewpar solve] run of the same
      instance reports.
    - A FIFO queue with admission control feeds a scheduler thread:
      at most [max_jobs] jobs run concurrently, at most [queue_depth]
      wait ([POST /jobs] answers 429 beyond that).
    - [DELETE /jobs/:id] cancels: the job's coordinator sees the flag
      within an event-loop tick, broadcasts [Shutdown], collects final
      stats, and frees the slots — which is what lets the next queued
      job start. Slots whose process died (or whose sockets a
      watchdog-abandoned job left dirty) are retired, never reused.

    {2 HTTP API}

    [POST /jobs] (body [{"problem","skeleton","localities"?}]) → 202
    with the job document (400 for a [seq] or [ordered] skeleton:
    jobs run on distributed localities); [GET /jobs] and [GET /jobs/:id] → status;
    [GET /jobs/:id/result] → result + per-job stats (409 until
    terminal); [DELETE /jobs/:id] → cancel (200 queued / 202 running /
    409 terminal); [GET /problems] → the registry;
    [GET /metrics] (Prometheus) and [GET /status] (JSON) → daemon
    gauges, counters and a job-latency histogram. *)

type servable
(** A problem the fleet can run: its locality entry point, encoded
    root and result renderer, with the search types hidden. *)

val servable :
  ('s, 'n, 'r) Yewpar_core.Problem.t ->
  show:('r -> string) ->
  (servable, string) result
(** Wrap a problem for serving. [Error] when the problem carries no
    task codec (only codec-bearing problems can cross process
    boundaries — the same rule as the distributed runtime). *)

type config = {
  port : int;  (** HTTP port; [0] picks an ephemeral one. *)
  localities : int;  (** Fleet slots available for jobs. *)
  workers : int;  (** Search domains per locality. *)
  max_jobs : int;  (** Concurrently running job limit. *)
  queue_depth : int;  (** Waiting-job limit; 429 beyond it. *)
  max_respawns : int;
      (** Spare slots forked up front, taking over as crashed slots
          are retired (slots are interchangeable, so spares are simply
          extra capacity until deaths eat into it). *)
  heartbeat : float;  (** Locality heartbeat interval (seconds). *)
  failure_timeout : float;
      (** Heartbeat-silence limit before a job declares a locality
          dead ([<= 0] disables). *)
  lease_timeout : float option;  (** Per-lease replay limit. *)
  job_watchdog : float option;
      (** Wall-clock bound per job; an expired job fails and its
          slots are retired. *)
  journal : string option;
      (** Causal journal path ({!Yewpar_telemetry.Journal}). When set,
          every job's coordinator appends its lease lifecycle (and the
          fleet's shipped worker events) to this one file under trace
          id [job-N], and the daemon adds
          [job_submitted]/[job_scheduled]/[job_finished] events, so
          queueing latency and the in-search critical path land in the
          same report. *)
  log : bool;
      (** Operational stderr logging ([serve: job N submitted/started
          on slots [..]/done]), every line stamped with the job id.
          Off by default so embedded use stays quiet. *)
}

val default_config : config
(** Ephemeral port, 2 localities x 1 worker, [max_jobs = 2],
    [queue_depth = 16], no spares, 0.2s heartbeat, 10s failure
    timeout, no lease timeout, no watchdog, no journal, no logging. *)

type t

val start :
  ?config:config -> registry:(string * servable) list -> unit -> t
(** Fork the fleet, bind the HTTP server and start the scheduler.
    Must be called before the process spawns any domain (the fork
    happens here). The registry maps instance names to servable
    problems; children resolve [Job_start] frames against the same
    closure.
    @raise Invalid_argument on a nonsensical config.
    @raise Unix.Unix_error if the port is taken. *)

val port : t -> int
(** The actually-bound HTTP port. *)

val stop : t -> unit
(** Graceful shutdown: refuse new jobs (503), cancel queued and
    running jobs, join every job thread, send [Quit] to the fleet and
    reap every child (stragglers are killed — no orphans), then stop
    the HTTP server. Idempotent. *)
