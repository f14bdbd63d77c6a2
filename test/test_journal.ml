(* Causal journal tests: the per-worker event ring drained mid-run, the
   JSONL writer (schema round-trip, clock offsets, size-based
   rotation), the tolerant reader, the critical-path report on
   synthetic spans, and end-to-end shm runs. *)

module Journal = Yewpar_telemetry.Journal
module Recorder = Yewpar_telemetry.Recorder
module Shm = Yewpar_par.Shm
module Coordination = Yewpar_core.Coordination
module Sequential = Yewpar_core.Sequential
module Queens = Yewpar_queens.Queens

let temp_path () = Filename.temp_file "yewpar_journal" ".jsonl"

let with_writer ?max_bytes ?trace f =
  let path = temp_path () in
  let w = Journal.create ?max_bytes ?trace ~path () in
  Fun.protect
    ~finally:(fun () ->
      Journal.close w;
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () -> f path w)

(* ----------------------------- buffer ----------------------------- *)

let buffer_overflow_drops () =
  (* A full ring must overwrite (and count) instead of blocking or
     growing: workers record on the search hot path. Draining takes
     what is new since the last drain, newest entries first to
     survive. *)
  let r = Recorder.create ~capacity:4 ~worker:2 () in
  let task i =
    Recorder.record r Recorder.Task ~span:i ~parent:(-1) ~start:(float_of_int i)
      ~dur:0.5 ~value:0
  in
  for i = 1 to 10 do
    task i
  done;
  Alcotest.(check int) "six dropped" 6 (Recorder.dropped r);
  let kept = Recorder.drain ~locality:1 r in
  Alcotest.(check (list int)) "newest events survive, in order" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Journal.span) kept);
  Alcotest.(check (list int)) "stamped with locality and worker" [ 1; 2 ]
    (match kept with e :: _ -> [ e.Journal.locality; e.Journal.worker ] | [] -> []);
  Alcotest.(check int) "drain empties" 0 (List.length (Recorder.drain r));
  task 11;
  Alcotest.(check int) "drained ring accepts again" 1
    (List.length (Recorder.drain r));
  Alcotest.(check int) "drops are not recounted" 6 (Recorder.dropped r)

(* ----------------------------- writer ----------------------------- *)

let schema_roundtrip () =
  (* Every field must survive write -> read, including the writer's
     trace stamp and the epoch-relative [at] derived from [t] plus the
     per-frame clock offset. *)
  with_writer ~trace:"t-test" @@ fun path w ->
  let t0 = 1000. in
  Journal.write w
    [
      Journal.event ~parent:3 ~locality:2 ~worker:1 ~t:t0 ~dur:0.5 ~value:42
        ~note:"hello" ~ev:"task" ~span:7 ();
    ];
  Journal.write w ~trace:"t-other" ~offset:10.
    [ Journal.event ~t:t0 ~ev:"bound" ~span:0 () ];
  Alcotest.(check int) "written counts" 2 (Journal.written w);
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  match entries with
  | [ a; b ] ->
    Alcotest.(check string) "trace" "t-test" a.Journal.e_trace;
    Alcotest.(check string) "ev" "task" a.Journal.e_ev;
    Alcotest.(check int) "span" 7 a.Journal.e_span;
    Alcotest.(check int) "parent" 3 a.Journal.e_parent;
    Alcotest.(check int) "locality" 2 a.Journal.e_locality;
    Alcotest.(check int) "worker" 1 a.Journal.e_worker;
    Alcotest.(check (float 1e-9)) "ts is the raw emitter clock" t0
      a.Journal.e_ts;
    Alcotest.(check (float 1e-9)) "dur" 0.5 a.Journal.e_dur;
    Alcotest.(check int) "value" 42 a.Journal.e_value;
    Alcotest.(check string) "note" "hello" a.Journal.e_note;
    Alcotest.(check string) "per-write trace override" "t-other"
      b.Journal.e_trace;
    Alcotest.(check int) "null parent reads as -1" (-1) b.Journal.e_parent;
    (* Both events carry the same emitter timestamp, but b's frame
       declared a +10s clock offset — its writer-relative [at] must
       land exactly 10s after a's. *)
    Alcotest.(check (float 1e-6)) "offset shifts at" 10.
      (b.Journal.e_at -. a.Journal.e_at)
  | l -> Alcotest.failf "expected 2 entries, read %d" (List.length l)

let rotation_at_size_limit () =
  (* Crossing max_bytes renames the live file to path.1 and keeps
     appending to a fresh file; the reader stitches both in order. *)
  with_writer ~max_bytes:2048 @@ fun path w ->
  for i = 1 to 100 do
    Journal.write w [ Journal.event ~t:(float_of_int i) ~ev:"task" ~span:i () ]
  done;
  Alcotest.(check bool) "rotated at least once" true (Journal.rotations w >= 1);
  Alcotest.(check bool) "rotation file exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "all events counted" 100 (Journal.written w);
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  Alcotest.(check bool) "rotation loses only whole prefixes" true
    (List.length entries > 0 && List.length entries <= 100);
  (* The stitched read must cover a contiguous suffix ending at the
     last write — rotation may drop the oldest generation (path.1 only
     keeps one), never reorder or tear lines. *)
  let spans = List.map (fun e -> e.Journal.e_span) entries in
  let rec consecutive = function
    | a :: (b :: _ as tl) -> a + 1 = b && consecutive tl
    | _ -> true
  in
  Alcotest.(check bool) "contiguous ascending spans" true (consecutive spans);
  Alcotest.(check int) "suffix ends at the last event" 100
    (List.nth spans (List.length spans - 1))

let malformed_lines_tolerated () =
  let good =
    {|{"v":1,"trace":"t","ev":"job_start","span":0,"parent":null,"loc":0,"worker":-1,"ts":1.0,"at":0.0,"dur":0.0,"value":0,"note":""}|}
  in
  let content =
    String.concat "\n"
      [
        good;
        "this is not json";
        {|{"v":99,"trace":"t","ev":"task","span":1,"parent":0,"loc":0,"worker":0,"ts":1.0,"at":0.0,"dur":0.1,"value":0,"note":"wrong version"}|};
        {|{"v":1,"trace":"t","span":1,"parent":0}|};
        "";
        good;
      ]
  in
  let entries, malformed = Journal.read_string content in
  Alcotest.(check int) "good lines kept" 2 (List.length entries);
  Alcotest.(check int) "bad lines counted, blanks ignored" 3 malformed

(* ----------------------------- report ----------------------------- *)

(* A synthetic two-worker trace with a known critical path:
     job 0
       lease 1 (loc 0): tasks [0,1) and [1,2)        self 2.0
         spill 2 (loc 1): task [1,4)                 self 3.0
         spill 3 (loc 0): task [2,2.5)               self 0.5
   The heaviest chain is 0 -> 1 -> 2; span 2's interval [1,4) overlaps
   span 1's [1,2) so the path total must count that second only once:
   2.0 + (3.0 - 1.0) = 4.0 = wall. *)
let synthetic_entries () =
  let lines =
    [
      {|{"v":1,"trace":"s","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":100.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"lease_issue","span":1,"parent":0,"loc":0,"worker":-1,"ts":100.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"spill","span":2,"parent":1,"loc":0,"worker":-1,"ts":100.5,"at":0.5,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"spill","span":3,"parent":1,"loc":0,"worker":-1,"ts":100.5,"at":0.5,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":1,"parent":-1,"loc":0,"worker":0,"ts":100.0,"at":0.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":1,"parent":-1,"loc":0,"worker":0,"ts":101.0,"at":1.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":2,"parent":-1,"loc":1,"worker":0,"ts":101.0,"at":1.0,"dur":3.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":3,"parent":-1,"loc":0,"worker":1,"ts":102.0,"at":2.0,"dur":0.5,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"idle","span":0,"parent":null,"loc":0,"worker":1,"ts":104.0,"at":4.0,"dur":1.5,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"job_done","span":0,"parent":null,"loc":-1,"worker":-1,"ts":104.0,"at":4.0,"dur":4.0,"value":0,"note":""}|};
    ]
  in
  let entries, malformed = Journal.read_string (String.concat "\n" lines) in
  Alcotest.(check int) "synthetic journal parses" 0 malformed;
  entries

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let report_critical_path () =
  let report = Journal.report (synthetic_entries ()) in
  Alcotest.(check bool) "critical path is 0->1->2, interval-deduped" true
    (contains report "critical path: 4.0000s over 3 span(s) (wall 4.0000s)");
  (* worker time: compute 5.5s, idle 1.5s, 7.0s accounted. *)
  Alcotest.(check bool) "overhead fractions" true
    (contains report
       "compute 0.786, replay-waste 0.000, steal-wait 0.000, idle 0.214 \
        (sum 1.000)");
  Alcotest.(check bool) "all causal links resolve" true
    (contains report "causal links: 3/3 parent references resolve")

let report_orphans_and_traces () =
  (* Events whose parent span was never defined must still be reported
     (attached to the root), and distinct trace ids must get distinct
     sections. *)
  let lines =
    [
      {|{"v":1,"trace":"a","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":0.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"a","ev":"task","span":5,"parent":9,"loc":0,"worker":0,"ts":0.0,"at":0.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"b","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":0.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
    ]
  in
  let entries, _ = Journal.read_string (String.concat "\n" lines) in
  let report = Journal.report entries in
  Alcotest.(check bool) "trace a reported" true (contains report "trace a:");
  Alcotest.(check bool) "trace b reported" true (contains report "trace b:");
  Alcotest.(check bool) "unresolved parent counted" true
    (contains report "causal links: 0/1 parent references resolve")

(* ------------------------------ e2e ------------------------------ *)

let shm_end_to_end () =
  (* A real multicore run: the journal must open with job_start, close
     with job_done, attribute every task to a span whose spawn parent
     resolves, and not change the answer. *)
  with_writer @@ fun path w ->
  let p = Queens.count_solutions (Queens.instance ~n:8) in
  let expected = Sequential.search p in
  let r =
    Shm.run ~workers:2 ~journal:w
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      p
  in
  Alcotest.(check int) "queens-8 exact under journalling" expected r;
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let kinds = List.map (fun e -> e.Journal.e_ev) entries in
  Alcotest.(check string) "opens with job_start" "job_start" (List.hd kinds);
  Alcotest.(check string) "closes with job_done" "job_done"
    (List.nth kinds (List.length kinds - 1));
  Alcotest.(check bool) "tasks were journalled" true
    (List.mem "task" kinds);
  Alcotest.(check bool) "spawns were journalled" true
    (List.mem "spawn" kinds);
  let spans = Hashtbl.create 64 in
  Hashtbl.replace spans 0 ();
  List.iter (fun e -> Hashtbl.replace spans e.Journal.e_span ()) entries;
  List.iter
    (fun e ->
      if e.Journal.e_parent >= 0 && not (Hashtbl.mem spans e.Journal.e_parent)
      then
        Alcotest.failf "parent %d of %s span %d does not resolve"
          e.Journal.e_parent e.Journal.e_ev e.Journal.e_span)
    entries;
  (* One trace, and the report pipeline accepts the file whole. *)
  let report = Journal.report entries in
  Alcotest.(check bool) "report finds a critical path" true
    (contains report "critical path:")

(* Every worker interval ([task], [idle], [steal]) must lie inside its
   job's [job_start, job_start + wall] window, with [slack] seconds of
   tolerance for cross-process clock offsets. *)
let check_within_job ?(slack = 0.) entries =
  let at ev =
    match List.find_opt (fun e -> e.Journal.e_ev = ev) entries with
    | Some e -> e
    | None -> Alcotest.failf "no %s event" ev
  in
  let lo = (at "job_start").Journal.e_at in
  let hi = lo +. (at "job_done").Journal.e_dur in
  List.iter
    (fun e ->
      match e.Journal.e_ev with
      | "task" | "idle" | "steal" ->
        let s = e.Journal.e_at and f = e.Journal.e_at +. e.Journal.e_dur in
        if s < lo -. slack || f > hi +. slack then
          Alcotest.failf "%s event [%.6f, %.6f] of worker %d/%d outside job [%.6f, %.6f]"
            e.Journal.e_ev s f e.Journal.e_locality e.Journal.e_worker lo hi
      | _ -> ())
    entries

let shm_events_within_job () =
  (* Idle waits are recorded one per wait from their real start, so no
     interval may spill past [job_done]. *)
  with_writer @@ fun path w ->
  let p = Queens.count_solutions (Queens.instance ~n:8) in
  ignore
    (Shm.run ~workers:2 ~journal:w
       ~coordination:(Coordination.Stack_stealing { chunked = false })
       p);
  Journal.close w;
  let entries, _ = Journal.read path in
  check_within_job entries

let seq_runtime_journal () =
  (* Sequential runs the worker core on one slot: the root task's spawn
     and execution, the worker's final idle wait on the drained pool,
     framed like every other run. Progress samples are timer-driven,
     so only their presence is checked. *)
  with_writer @@ fun path w ->
  let p = Queens.count_solutions (Queens.instance ~n:6) in
  let _ = Shm.run ~journal:w ~coordination:Coordination.Sequential p in
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let kinds = List.map (fun e -> e.Journal.e_ev) entries in
  Alcotest.(check (list string)) "job_start, spawn, task, idle, job_done"
    [ "job_start"; "spawn"; "task"; "idle"; "job_done" ]
    (List.filter (fun k -> k <> "progress_sample") kinds);
  Alcotest.(check bool) "progress sampled" true
    (List.mem "progress_sample" kinds)

let () =
  Alcotest.run "journal"
    [
      ( "buffer",
        [ Alcotest.test_case "overflow drops and counts" `Quick
            buffer_overflow_drops ] );
      ( "writer",
        [
          Alcotest.test_case "schema roundtrip" `Quick schema_roundtrip;
          Alcotest.test_case "rotation at size limit" `Quick
            rotation_at_size_limit;
          Alcotest.test_case "malformed lines tolerated" `Quick
            malformed_lines_tolerated;
        ] );
      ( "report",
        [
          Alcotest.test_case "critical path and overheads" `Quick
            report_critical_path;
          Alcotest.test_case "orphans and multiple traces" `Quick
            report_orphans_and_traces;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "shm run journals causally" `Quick shm_end_to_end;
          Alcotest.test_case "shm events lie within the job" `Quick
            shm_events_within_job;
          Alcotest.test_case "sequential baseline shape" `Quick
            seq_runtime_journal;
        ] );
    ]
