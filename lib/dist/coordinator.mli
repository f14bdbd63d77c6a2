(** The coordinator: parent-process event loop of the distributed
    runtime.

    Owns the distributed workpool ({!Pool}), seeds it with the encoded
    root, and serves/relays steals between localities; rebroadcasts
    incumbent improvements to every other locality (counting the
    fan-out as bound broadcasts).

    {2 Task leases}

    Every task handed to a locality is recorded as a {e lease}: id,
    parent lease, depth, payload, holder, issue time. Spills arriving
    from a locality become child leases of the lease they were spawned
    under, forming a forest rooted at the search root. A locality
    retires its leases (with per-lease result deltas) in [Idle] frames
    at full quiescence; termination is detected when the pool is empty
    and no lease is outstanding — at which point the retired deltas
    exactly partition the search tree.

    {2 Fault tolerance}

    A locality is declared dead on socket EOF, a frame send that times
    out, or — with [failure_timeout] — heartbeat silence past the
    limit (a [Ping] probes it at a third of the limit). On death the
    dead holder's outstanding leases and {e all} their descendant
    leases are revoked (queued tasks dropped, live holders' late
    retirements ignored, retired deltas excluded) and the forest roots
    are replayed under fresh ids; the incumbent floor is rebroadcast
    so replays prune as hard as the work they replace, and a standby
    locality (index ≥ [standby_from]) is promoted if available.
    Optimise incumbents survive their finder's death because
    [Bound_update] frames carry the witness node. With
    [lease_timeout], leases outstanding longer than the limit are
    revoked and replayed the same way (recovering from lost frames
    under fault injection). The run fails only when every non-standby
    locality is lost. *)

type outcome = {
  deltas : string list;
      (** Result deltas of every retired, non-revoked lease. For
          enumerations these partition the tree exactly; folding them
          is the answer. *)
  residuals : string list;
      (** The residuals of the localities' [Report] frames (those that
          carry one): extra idempotent best-known candidates for
          Optimise/Decide (empty for Enumerate). *)
  witness : (int * string) option;
      (** Best (value, encoded node) the coordinator holds, fed by
          [Bound_update] witnesses and Decide [Witness] frames — the
          incumbent that survives its finder's death. *)
  stats : Yewpar_core.Stats.t;
      (** Sum of every locality's counters, plus the coordinator's own
          fault counters ([localities_lost], [leases_reissued],
          [respawns]). *)
  broadcasts : int;  (** Bound-update messages fanned out. *)
  failure : string option;
      (** A locality's failure message, a watchdog report (with
          elapsed time and per-locality last-heartbeat ages), a
          cancellation reason, or total-loss report. *)
  dead : bool array;
      (** Per-connection post-mortem: [dead.(i)] is true when locality
          [i] was declared dead during the run (its connection was
          closed by the coordinator). The job server uses this to
          retire fleet slots whose process is gone. *)
  abandoned : bool;
      (** True when the watchdog expired {e and} collection was
          abandoned after the grace period: surviving localities may
          still be mid-job with undrained sockets, so their
          connections must not be reused for another job. *)
}

type progress = {
  p_tasks_done : int;  (** Tasks finished, summed over localities. *)
  p_pool_depth : int;
      (** Tasks queued: coordinator pool plus local pools. *)
  p_outstanding : int;  (** Leases issued and not yet retired. *)
  p_best : int;
      (** Best incumbent objective seen ([min_int] when none). *)
  p_alive : int;  (** Localities still connected. *)
  p_nodes : int;  (** Nodes processed, fused over live localities. *)
  p_est_total : float;
      (** Estimated total tree size ({!Yewpar_core.Progress}), fused
          from the per-locality heartbeat samples. *)
  p_fraction : float;
      (** Monotone completed fraction in [0, 1]; exactly 1.0 only at
          quiescence. *)
  p_rate : float;  (** Smoothed nodes/sec; 0 until measurable. *)
  p_eta : float;
      (** Estimated seconds remaining; 0 when done, -1 unknown. *)
}
(** A best-effort snapshot of a running search, derived from the same
    heartbeats that feed the live monitor. *)

val run :
  ?watchdog:float ->
  ?monitor_port:int ->
  ?on_monitor:(int -> unit) ->
  ?failure_timeout:float ->
  ?lease_timeout:float ->
  ?standby_from:int ->
  ?pool_policy:Yewpar_core.Workpool.policy ->
  ?cancelled:(unit -> string option) ->
  ?on_progress:(progress -> unit) ->
  ?journal:Yewpar_telemetry.Journal.writer ->
  ?telemetry:Yewpar_telemetry.Telemetry.t ->
  ?trace:string ->
  ?label:string ->
  heartbeat:float ->
  started:float ->
  conns:Transport.t array ->
  root_payload:string ->
  unit ->
  outcome
(** Drive the search to completion over the given locality
    connections. [watchdog] (seconds) bounds the whole run: on expiry
    the coordinator broadcasts [Shutdown], records a failure naming
    the elapsed time and each locality's last-heartbeat age, and — if
    localities still do not report — abandons collection shortly
    after, letting the caller kill them. [failure_timeout] (seconds;
    [<= 0] disables) bounds heartbeat silence before a locality is
    declared dead; [lease_timeout] (seconds; [<= 0] or absent
    disables) bounds how long a lease may stay outstanding before it
    is revoked and replayed. Connections with index ≥ [standby_from]
    are standby spares: never served work until promoted after a
    death. [pool_policy] (default [Depth]) orders the distributed
    workpool; best-first coordination passes [Priority] so the
    coordinator serves globally best tasks first.

    [cancelled] is polled once per event-loop iteration; returning
    [Some reason] aborts the run like a failure — [Shutdown] is
    broadcast, stats are still collected, and [reason] lands in
    [outcome.failure]. The CLI routes SIGTERM/SIGINT through it and
    the job server routes [DELETE /jobs/:id], which is how a
    cancelled job releases its leases. [heartbeat] is the localities'
    heartbeat period: the fused progress estimate and its rate are
    re-taken on the coordinator's clock at most once per period, once
    a heartbeat has arrived since the last estimate, and at the first
    heartbeat. [on_progress] is invoked with a {!progress} snapshot at
    each such estimate (it works without [monitor_port]).

    With [journal] the coordinator writes the run's causal event
    journal ({!Yewpar_telemetry.Journal}): job lifecycle and every
    lease issue/retire/spill/revoke/replay, bound adoption, death and
    respawn — span ids being lease ids, and a replayed lease's span
    chained to the revoked original — plus the events localities ship
    in their [Heartbeat]/[Report] frames, stamped with the sender's
    index and clock offset. Events are tagged [trace] (default: the
    writer's trace id). [label] (e.g. ["job 7"]) prefixes failure
    messages and is recorded on the [job_start] event, keeping
    interleaved job-server output attributable. [started] is when the
    caller launched the job (forked or started its localities): the
    time of the [job_start] event, the origin of [job_done]'s duration
    and of the watchdog, so no locality event predates the job. With [telemetry] the same stamped locality
    events are also kept in that sink ({!Yewpar_telemetry.Telemetry.ingest}),
    so the trace and metrics views agree with the journal.

    With [monitor_port] the coordinator serves live observability over
    HTTP on [127.0.0.1] for the duration of the run ([0] picks an
    ephemeral port, reported through [on_monitor]): its fields — the
    lease table, the fault counters, the latest heartbeats — render as
    [GET /metrics] gauges and [GET /status] keys
    ({!Yewpar_telemetry.Live}), with per-locality rows and the fleet
    size added to [/status]. The server stops — and the port closes — before
    {!run} returns, even on failure. *)
