(** Post-hoc benchmark analysis ([yewpar analyze]) and the shared
    minimal JSON codec.

    All pure string/value processing so it is testable without files
    (the journal's load-balance and critical-path reports live in
    {!Journal}):

    - {!load_bench} reads [bench --json] output (both the versioned
      [{"schema_version": .., "records": [..]}] envelope and the
      legacy bare array);
    - {!compare_bench} joins two bench files on
      (experiment, problem, skeleton, runtime, topology) and flags
      elapsed-time regressions beyond a threshold — the CLI exits
      nonzero when any are found, making it a CI tripwire. *)

(** {2 Minimal JSON}

    Just enough JSON for the formats this codebase produces itself
    (journal lines, bench records, the job server's API bodies);
    shared so the CLI, the tests and {!Yewpar_server} agree on one
    parser. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val parse_json : string -> json
(** Parse a complete JSON document ([\uXXXX] escapes decode to UTF-8,
    surrogate pairs included). @raise Failure on malformed input. *)

val to_string : json -> string
(** Render compact JSON, escaping strings; integral [Num]s print
    without a decimal point, so ids survive a round trip. *)

val member : string -> json -> json option
(** Object field lookup; [None] on missing key or non-object. *)

val num_or : float -> json option -> float
(** [num_or d j] is the number in [j], or [d]. *)

val str_or : string -> json option -> string
(** [str_or d j] is the string in [j], or [d]. *)

val percentile : float -> float array -> float
(** Nearest-rank percentile of an ascending-sorted array ([0.] when
    empty): [percentile 50. a] is the median. *)

type bench = {
  schema_version : int;  (** 0 for the legacy bare-array format. *)
  records : (string * float) list;
      (** [(key, elapsed)] with key =
          [experiment/problem/skeleton/runtime/LxW]; duplicate keys
          (seed sweeps) are averaged. *)
}

val load_bench : string -> bench
(** Parse [bench --json] file content. @raise Failure on junk. *)

type verdict = {
  regressions : (string * float * float * float) list;
      (** [(key, old_elapsed, new_elapsed, delta_pct)] beyond the
          threshold, worst first. *)
  report : string;  (** Full comparison table plus a summary line. *)
}

val compare_bench : threshold_pct:float -> old_:bench -> new_:bench -> verdict
(** A/B comparison keyed on the benchmark identity; a regression is
    [new > old * (1 + threshold_pct/100)] on a key present in both
    files. Keys present on one side only are listed but never fail
    the comparison. *)
