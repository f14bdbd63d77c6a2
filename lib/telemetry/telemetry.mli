(** The run-wide event sink and its views.

    A [Telemetry.t] holds the worker events of a run as journal events
    ({!Journal.event}). Each worker records into its own {!Recorder}
    ring; the runtime drains the rings — mid-run when a journal is
    being written, at the end otherwise — and {!ingest}s the drained
    events here, and the distributed coordinator ingests the events
    each locality ships in its heartbeats and final frame, shifted by
    the estimated per-locality clock offset so all events land on one
    timeline. The JSONL journal is written from the same drained
    events, so every view below agrees with it:

    - {!to_chrome} — Chrome trace-event JSON (open in Perfetto or
      chrome://tracing): one process group per locality, one track per
      worker;
    - {!to_csv} — [worker,start,duration,label] Gantt rows, workers
      numbered densely across localities;
    - {!metrics}/{!to_prometheus} — a {!Metrics} registry derived from
      the events (task-duration / steal-latency / idle-wait
      log-histograms, event counters, drop counts) in Prometheus text
      exposition format.

    The simulator feeds a sink too: [Sim.run ~trace] ingests each
    virtual-time busy interval of a simulated worker as one event.

    The views draw the events that carry a worker slot; [journal_drop]
    events (no worker) feed {!dropped}. A sink is fed from one thread
    at a time. *)

type t

val create : unit -> t
(** A fresh, empty sink. *)

val ingest :
  t -> locality:int -> offset:float -> Journal.event list -> unit
(** Keep drained events: [offset] (seconds, added to every [t]) aligns
    the emitting process's clock with ours ([0.] in-process), and
    events with an unknown locality are stamped [locality]. *)

val events : t -> Journal.event list
(** Everything kept so far, sorted by start time. *)

val dropped : t -> int
(** Events lost to ring overflow: the sum of the kept [journal_drop]
    counts. *)

val to_chrome : t -> string
(** Chrome trace-event JSON. Timestamps are microseconds relative to
    the earliest event; [pid] = locality, [tid] = worker, with metadata
    records naming both. Durationful events are ["ph":"X"] complete
    events and zero-duration ones ["ph":"i"] instants, named by their
    journal kind, with the span and value as [args]. *)

val to_csv : t -> string
(** [worker,start,duration,label] rows; workers are densely
    renumbered across localities, starts are relative to the earliest
    event and the label is the kind. *)

val metrics : t -> Metrics.t
(** Derive the metric catalogue (see MANUAL §5.2) from the events. *)

val to_prometheus : t -> string
(** [Metrics.to_prometheus (metrics t)]. *)
