(** Live progress tracking over the {!Yewpar_core.Progress} tree-size
    estimator: rate smoothing, ETA, monotone reported fraction, and
    the render helpers for the journal and the [yewpar top] bar ({!Live}
    renders the [/status] block and the [yewpar_progress_*] gauges).

    One tracker lives wherever estimates are fused — the shm monitor,
    the distributed coordinator, the job server — and is fed a merged
    {!Yewpar_core.Progress.sample} on every refresh. The tracker is
    what makes the {e reported} fraction monotone non-decreasing: raw
    estimates can wobble as racy worker snapshots or out-of-order
    heartbeats fuse, but the high-water mark only moves forward. *)

type report = {
  r_nodes : int;  (** nodes processed so far *)
  r_total : float;  (** estimated total tree size *)
  r_lo : float;  (** lower confidence bound *)
  r_hi : float;  (** upper confidence bound (may be [infinity]) *)
  r_fraction : float;  (** monotone completed fraction in [0, 1] *)
  r_rate : float;  (** smoothed nodes/sec; 0 until measurable *)
  r_eta : float;
      (** estimated seconds remaining; 0 when done, -1 when unknown *)
  r_exact : bool;  (** the estimate is exact (all strata closed) *)
}

val idle : report
(** The all-zero report (fraction 0, unknown ETA) for a run that has
    not produced a sample yet. *)

type t

val create : unit -> t

val update :
  t -> ?final:bool -> now:float -> Yewpar_core.Progress.sample -> report
(** Fold one fused sample into the tracker and report. [now] is the
    caller's clock (seconds); the rate is an EWMA of inter-update
    rates seeded by the cumulative rate. [~final:true] clamps the
    fraction to exactly 1.0 and the ETA to 0
    ({!Yewpar_core.Progress.estimate}). *)

val journal_value : report -> int
(** The [value] an emitted [progress_sample] journal event carries:
    the rounded estimated total (0 when unbounded). *)

val journal_note : report -> string
(** The [note] of a [progress_sample] event:
    ["frac=<f>;nodes=<n>;eta=<s>"]. *)

val eta_string : report -> string
(** Human ETA: ["-"] (unknown), ["<1s"], ["42s"], ["3m07s"],
    ["2h15m"]. *)

val bar : width:int -> report -> string
(** A textual progress bar, e.g. ["[######....]"]. *)
