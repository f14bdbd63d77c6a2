(** The distributed runtime's wire protocol.

    Fourteen constructors: work moves as [Task], [Steal_request] and
    [Steal_reply]; knowledge as [Bound_update] and [Witness];
    termination as [Idle]; liveness and progress as [Ping], [Pong] and
    [Heartbeat]; every locality job ends with one [Report], after a
    [Failed] if the job failed; and job control is [Shutdown],
    [Job_start] and [Quit].

    Localities and the coordinator exchange length-prefixed binary
    frames over Unix-domain sockets: a 4-byte big-endian payload
    length, then the [Marshal]-encoded {!msg}. All process-crossing
    search state (task nodes, results, witnesses) is pre-encoded to
    [string] by the problem's task codec ({!Yewpar_core.Codec}), so a
    frame itself never contains closures and decodes in any process of
    the same binary.

    Framing and parsing are pure byte-level operations, separated from
    file descriptors (see {!Transport}) so partial-read reassembly is
    testable without sockets: {!feed} the decoder arbitrary chunks —
    even single bytes — and {!next} yields each completed message. *)

type msg =
  | Task of { parent : int; depth : int; priority : int; payload : string }
      (** Locality → coordinator: a spawned task spilled to the
          coordinator's distributed workpool. [payload] is the
          codec-encoded node; [parent] is the lease the spilling
          locality was executing under, so the coordinator can place
          the new task in the lease forest (a spill's subtree is
          {e not} part of its parent lease's result delta, and must be
          revoked with the parent when the parent is replayed).
          [priority] is the spiller's heuristic value for the node
          (0 outside best-first coordination), so the coordinator's
          pool can hand out globally best tasks first. *)
  | Steal_request
      (** Locality → coordinator: a worker is starving, send work.
          Coordinator → locality: another locality is starving, shed
          queued work back (the steal channel). *)
  | Steal_reply of { task : (int * int * string) option }
      (** Coordinator → locality: a stolen [(lease, depth, payload)]
          task. The lease id keys the locality's result delta for this
          task and its retirement ack; the coordinator records the
          lease as outstanding until it is retired by an [Idle] or
          revoked by failure handling. The coordinator defers the
          reply until work exists, so [None] never occurs on the live
          protocol path; it is kept for protocol completeness. *)
  | Bound_update of { value : int; witness : string option }
      (** An incumbent improvement. Locality → coordinator on local
          improvement, with the codec-encoded witness node so the
          incumbent survives its finder's death; coordinator → every
          other locality on global improvement (the PGAS
          bound-register broadcast, [witness = None]). *)
  | Witness of { value : int; payload : string }
      (** Locality → coordinator: a Decide search found its witness;
          triggers a global shutdown broadcast. *)
  | Idle of { retired : (int * string) list }
      (** Locality → coordinator: the locality went fully idle,
          retiring every lease taken since the previous [Idle], each
          with its marshalled result delta — the contribution of that
          lease's subtree {e minus} the subtrees it spilled back (the
          spills were sent earlier on this same ordered socket, so the
          coordinator already holds them as child leases). Drives
          distributed termination detection: the search has quiesced
          when the distributed pool is empty and no lease is
          outstanding. *)
  | Ping
      (** Coordinator → locality: liveness probe, sent when a locality
          has been silent for a while; answered with [Pong]. *)
  | Pong  (** Locality → coordinator: answer to [Ping]. *)
  | Heartbeat of {
      clock : float;  (** The locality's monotonic clock at emission. *)
      tasks_done : int;  (** Tasks finished since startup. *)
      pool_depth : int;  (** Tasks currently queued in the local pool. *)
      idle_workers : int;  (** Workers blocked waiting for work. *)
      idle_frac : float;
          (** Cumulative idle seconds across workers divided by
              [workers * uptime]: the locality's starvation level. *)
      best : int;  (** The locality's current local bound. *)
      trace_dropped : int;
          (** Spans dropped by full recorder ring buffers so far. *)
      nodes : int;  (** Nodes processed since startup. *)
      progress : Yewpar_core.Progress.sample;
          (** Cumulative per-depth estimator columns
              ({!Yewpar_core.Progress}) since startup. Cumulative on
              purpose: the coordinator {e replaces} the sender's
              previous sample rather than summing deltas, so fusing
              across localities (element-wise sum of latest samples)
              cannot double-count stolen or replayed work. *)
      events : Yewpar_telemetry.Journal.event list;
          (** Worker events drained from the locality's rings since the
              last heartbeat ([[]] when the run is not recorded). Span
              ids are lease ids, so these link into the coordinator's
              lease forest; the coordinator stamps the sender's
              locality index and clock offset before keeping them. *)
    }
      (** Locality → coordinator, periodically: a best-effort progress
          snapshot. When monitoring is enabled ([--monitor-port]) the
          coordinator folds it into its live metrics registry so
          [GET /metrics] and [GET /status] reflect the running search;
          it also refreshes the sender's liveness clock for
          heartbeat-timeout failure detection. Never acked, never
          affects termination. *)
  | Report of {
      residual : string option;
          (** The locality's local residual result (kind-dependent
              encoding, see {!Locality}): an extra idempotent
              candidate for Optimise/Decide, empty for Enumerate.
              Results flow primarily through the per-lease deltas of
              [Idle] frames. [None] when the locality ran no search
              (a persistent locality that could not resolve its job). *)
      stats : Yewpar_core.Stats.t;
          (** The locality's search counters, aggregated by the
              coordinator. Steal counts are wire steals: [Steal_request]
              frames sent and [Steal_reply] tasks received. *)
      clock : float;
          (** The locality's monotonic clock when the frame was built. *)
      events : Yewpar_telemetry.Journal.event list;
          (** The last worker events drained from the rings (plus a
              [journal_drop] count if any were lost); [[]] when the run
              is not recorded. As for [Heartbeat] events, the
              coordinator estimates the per-locality clock offset as
              [its own clock at receipt - clock] (an upper bound off by
              the frame's transit time) and shifts the events onto its
              own timeline. *)
    }
      (** Locality → coordinator after shutdown: the last frame of
          every locality job. The coordinator counts the locality done
          when it arrives, so every fact about a finished job travels
          in this one frame. *)
  | Failed of { message : string }
      (** Locality → coordinator: user code (a generator, bound or
          objective) raised; aborts the whole search. *)
  | Shutdown
      (** Coordinator → locality: stop the current search, report and
          return. A locality forked for a single run exits afterwards;
          a persistent locality ({!Locality.serve}, the [yewpar serve]
          fleet) returns to idle and waits for the next [Job_start]. *)
  | Job_start of { instance : string; skeleton : string; job : int }
      (** Daemon → persistent locality: begin a search job. [instance]
          names a registered problem (resolved inside the locality —
          same binary, same registry) and [skeleton] is the
          coordination in {!Yewpar_core.Coordination.of_string}
          syntax. [job] is the daemon's job id — it doubles as the
          job's trace id ([job-N]) so every journal event and log line
          a locality emits is attributable when jobs interleave on the
          fleet. Only used by the job server's persistent fleet; never
          sent on single-run connections. *)
  | Quit
      (** Daemon → persistent locality: the fleet is shutting down for
          good — exit the process. Distinct from [Shutdown], which
          only ends the current job. *)

val to_bytes : msg -> bytes
(** Frame one message: 4-byte big-endian length + marshalled payload. *)

type decoder
(** Incremental frame reassembler: buffers arbitrary byte chunks and
    yields completed messages. *)

val decoder : unit -> decoder
(** A fresh decoder with an empty buffer. *)

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d buf off len] appends [len] bytes of [buf] starting at
    [off] — any split of the byte stream is fine, including mid-frame
    and mid-length-prefix. *)

val next : decoder -> msg option
(** The next completed message, if a whole frame has arrived.
    @raise Failure on a corrupt frame length. *)

val pending : decoder -> int
(** Bytes buffered but not yet consumed by {!next}. *)
