(** Fault injection for the distributed runtime.

    A chaos specification is a comma-separated list of faults, parsed
    from [--chaos SPEC] on the command line:

    - [kill-locality:ID@TIMEs] — locality [ID] kills itself (SIGKILL,
      no cleanup, no goodbye frame) [TIME] seconds after it starts:
      the canonical crash used by the fault-tolerance CI gate.
    - [kill-locality:ID@leases:N] — the same crash, when locality [ID]
      receives its [N]-th lease ([N >= 1]). The lease is then
      outstanding, so the crash lands mid-search however fast the
      host runs, provided the locality is ever handed [N] leases.
    - [drop-frame:TYPE:PROB] — each inbound frame of wire type [TYPE]
      is silently discarded with probability [PROB]. [TYPE] is the
      lowercase constructor name of a frame a locality acts on when it
      arrives: [steal_reply], [steal_request], [bound_update], [ping]
      or [shutdown]; any other name is rejected, since dropping it
      would inject nothing. [Shutdown] is accepted but never dropped —
      losing it only wedges the test harness, not the protocol under
      test.
    - [delay:Nms] — sleep [N] milliseconds before every outbound
      frame, simulating a slow link.

    Faults compose: ["kill-locality:1@0.2s,delay:5ms"] is a slow
    cluster that loses locality 1 at 200ms.

    Randomized decisions (frame drops) draw from a
    {!Yewpar_util.Splitmix} stream derived from [--chaos-seed] and the
    locality index, so a failing run replays bit-for-bit. *)

type fault =
  | Kill_locality of { locality : int; after : float }
  | Kill_at_lease of { locality : int; lease : int }
  | Drop_frame of { frame : string; prob : float }
  | Delay of { seconds : float }

type t = fault list

val parse : string -> (t, string) result
(** Parse a [--chaos] specification; [Error] explains the first bad
    fault. *)

type plan = {
  kill_after : float option;
      (** Seconds after locality start at which to SIGKILL self. *)
  kill_at_lease : int option;
      (** SIGKILL self on receiving this many leases. *)
  drops : (string * float) list;  (** Frame name, drop probability. *)
  delay : float;  (** Seconds to sleep before each outbound frame. *)
  rng : Yewpar_util.Splitmix.gen;
}
(** One locality's slice of the chaos spec. *)

val plan : t -> seed:int -> locality:int -> plan option
(** [plan faults ~seed ~locality] is the plan for that locality, or
    [None] when no fault applies to it (the common case: chaos should
    cost nothing when absent). *)

val should_drop : plan -> Wire.msg -> bool
(** Roll the dice for one inbound frame. Never [true] for
    [Shutdown]. *)

val describe : t -> string
(** Render back to the spec grammar (for logs). *)
