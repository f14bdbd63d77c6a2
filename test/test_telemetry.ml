(* Telemetry tests: event-ring overflow, histogram bucket series,
   Prometheus exposition syntax, Chrome trace-event JSON
   well-formedness, and end-to-end recorded runs on the shm and dist
   runtimes (including one-track-per-worker / one-process-per-locality
   structure, trace-does-not-perturb-the-search, and the trace agreeing
   with the journal written from the same events). *)

module Recorder = Yewpar_telemetry.Recorder
module Journal = Yewpar_telemetry.Journal
module Metrics = Yewpar_telemetry.Metrics
module Telemetry = Yewpar_telemetry.Telemetry
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Shm = Yewpar_par.Shm
module Dist = Yewpar_dist.Dist
module Queens = Yewpar_queens.Queens
module Http = Yewpar_telemetry.Http_export

let queens_n n = Queens.count_solutions (Queens.instance ~n)

(* ------------------------- minimal JSON parser ------------------------- *)

(* Just enough JSON to check the Chrome export is well-formed: objects,
   arrays, strings (escapes decoded naively), numbers, literals. *)
type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad_json "eof") in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then
      raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'u' ->
          advance ();
          pos := !pos + 4;
          Buffer.add_char b '?'
        | c ->
          advance ();
          Buffer.add_char b
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c));
        loop ()
      | c ->
        advance ();
        Buffer.add_char b c;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); J_obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
          | c -> raise (Bad_json (Printf.sprintf "bad object char %c" c))
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); J_arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); J_arr (List.rev (v :: acc))
          | c -> raise (Bad_json (Printf.sprintf "bad array char %c" c))
        in
        elements []
      end
    | '"' -> J_str (parse_string ())
    | 't' -> pos := !pos + 4; J_bool true
    | 'f' -> pos := !pos + 5; J_bool false
    | 'n' -> pos := !pos + 4; J_null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        advance ()
      done;
      if !pos = start then raise (Bad_json (Printf.sprintf "junk at %d" start));
      J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member k = function
  | J_obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get_events json =
  match member "traceEvents" json with
  | Some (J_arr evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not an array"

let str_field k ev =
  match member k ev with
  | Some (J_str s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "field %S missing or not a string" k)

let num_field k ev =
  match member k ev with
  | Some (J_num f) -> f
  | _ -> Alcotest.fail (Printf.sprintf "field %S missing or not a number" k)

(* ---------------------------- recorder ---------------------------- *)

let task r ~start ~dur ~value =
  Recorder.record r Recorder.Task ~span:value ~parent:(-1) ~start ~dur ~value

let test_ring_overflow () =
  let r = Recorder.create ~capacity:4 ~worker:0 () in
  for i = 0 to 9 do
    task r ~start:(float_of_int i) ~dur:0.5 ~value:i
  done;
  Alcotest.(check int) "recorded" 10 (Recorder.recorded r);
  Alcotest.(check int) "dropped" 6 (Recorder.dropped r);
  let evs = Recorder.drain r in
  Alcotest.(check int) "survivors" 4 (List.length evs);
  (* The newest events survive, drained oldest-first. *)
  Alcotest.(check (list (float 1e-9)))
    "newest retained, in order" [ 6.; 7.; 8.; 9. ]
    (List.map (fun e -> e.Journal.t) evs);
  Alcotest.(check (list int)) "values follow" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Journal.value) evs)

let test_ring_no_overflow () =
  let r = Recorder.create ~capacity:8 ~worker:1 () in
  Recorder.instant r Recorder.Bound ~span:0 ~value:42;
  Recorder.record r Recorder.Idle ~span:0 ~parent:(-1) ~start:1. ~dur:2. ~value:0;
  Alcotest.(check int) "dropped" 0 (Recorder.dropped r);
  let evs = Recorder.drain r in
  Alcotest.(check int) "both drained" 2 (List.length evs);
  Alcotest.(check (list int)) "worker id" [ 1; 1 ]
    (List.map (fun e -> e.Journal.worker) evs);
  Alcotest.(check (list string)) "kinds are journal kinds" [ "bound"; "idle" ]
    (List.map (fun e -> e.Journal.ev) evs)

let test_null_recorder () =
  task Recorder.null ~start:0. ~dur:1. ~value:0;
  Recorder.instant Recorder.null Recorder.Bound ~span:0 ~value:3;
  Alcotest.(check int) "null records nothing" 0 (Recorder.recorded Recorder.null);
  Alcotest.(check int) "null drains nothing" 0
    (List.length (Recorder.drain Recorder.null));
  Alcotest.(check (float 0.)) "null clock" 0. (Recorder.now Recorder.null)

(* ---------------------------- metrics ----------------------------- *)

let test_buckets_125 () =
  let got = Metrics.buckets_125 ~lo:1e-2 ~hi:1. in
  Alcotest.(check (list (float 1e-9)))
    "1-2-5 series" [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1. ] got;
  (* lo/hi not on the grid: starts at the largest value <= lo, ends at
     the smallest >= hi. *)
  let got = Metrics.buckets_125 ~lo:0.03 ~hi:0.3 in
  Alcotest.(check (list (float 1e-9))) "covers lo and hi"
    [ 0.02; 0.05; 0.1; 0.2; 0.5 ] got

let test_buckets_pow2 () =
  Alcotest.(check (list (float 0.)))
    "powers of two" [ 1.; 2.; 4.; 8.; 16. ] (Metrics.buckets_pow2 ~hi:10)

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 1.; 2.; 5. ] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 10. ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 15. (Metrics.histogram_sum h);
  (* Cumulative per-bucket counts, +Inf last. *)
  match Metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
    Alcotest.(check (list (float 1e-9))) "bounds" [ 1.; 2.; 5. ] [ b1; b2; b3 ];
    Alcotest.(check bool) "last is +Inf" true (binf = infinity);
    Alcotest.(check (list int)) "cumulative" [ 1; 2; 3; 4 ] [ c1; c2; c3; cinf ]
  | l -> Alcotest.fail (Printf.sprintf "expected 4 buckets, got %d" (List.length l))

let test_prometheus_syntax () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"Things counted." "things_total" in
  Metrics.inc ~by:3 c;
  let g = Metrics.gauge reg "level" in
  Metrics.set g 2.5;
  let h = Metrics.histogram reg ~buckets:[ 0.1; 1. ] "latency_seconds" in
  Metrics.observe h 0.05;
  Metrics.observe h 7.;
  let text = Metrics.to_prometheus reg in
  let contains sub =
    try
      ignore (Str.search_forward (Str.regexp_string sub) text 0);
      true
    with Not_found -> false
  in
  List.iter
    (fun sub -> Alcotest.(check bool) (Printf.sprintf "has %S" sub) true (contains sub))
    [ "# HELP things_total Things counted."; "# TYPE things_total counter";
      "things_total 3"; "# TYPE level gauge"; "level 2.5";
      "# TYPE latency_seconds histogram"; "latency_seconds_bucket{le=\"0.1\"} 1";
      "latency_seconds_bucket{le=\"+Inf\"} 2"; "latency_seconds_sum";
      "latency_seconds_count 2" ];
  (* Every non-comment, non-blank line is `name[{labels}] value`. *)
  let line_re =
    Str.regexp "^[a-zA-Z_:][a-zA-Z0-9_:]*\\({[^}]*}\\)? [^ ]+$"
  in
  List.iter
    (fun line ->
      if line <> "" && not (String.length line > 0 && line.[0] = '#') then
        Alcotest.(check bool)
          (Printf.sprintf "line %S well-formed" line)
          true
          (Str.string_match line_re line 0))
    (String.split_on_char '\n' text)

(* ------------------------- trace exporters ------------------------ *)

(* A sink holding what [rings] recorded, ring [i] on locality [i]. *)
let sink_of rings =
  let tl = Telemetry.create () in
  List.iteri
    (fun locality r -> Telemetry.ingest tl ~locality ~offset:0. (Recorder.drain r))
    rings;
  tl

let test_chrome_export () =
  let r0 = Recorder.create ~worker:0 () in
  let r1 = Recorder.create ~worker:0 () in
  task r0 ~start:1. ~dur:0.25 ~value:3;
  Recorder.instant r0 Recorder.Bound ~span:0 ~value:7;
  task r1 ~start:1.5 ~dur:0.5 ~value:1;
  let tl = sink_of [ r0; r1 ] in
  let json = parse_json (Telemetry.to_chrome tl) in
  let events = get_events json in
  Alcotest.(check bool) "has events" true (events <> []);
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      ignore (num_field "pid" ev);
      match ph with
      | "X" ->
        ignore (str_field "name" ev);
        ignore (num_field "ts" ev);
        ignore (num_field "dur" ev);
        ignore (num_field "tid" ev)
      | "i" ->
        ignore (num_field "ts" ev);
        ignore (num_field "tid" ev)
      | "M" -> ignore (str_field "name" ev)
      | ph -> Alcotest.fail ("unexpected ph " ^ ph))
    events;
  (* One complete event per durationful event, with µs timestamps
     relative to the earliest event. *)
  let xs = List.filter (fun ev -> str_field "ph" ev = "X") events in
  Alcotest.(check int) "two complete events" 2 (List.length xs);
  let durs = List.map (num_field "dur") xs |> List.sort compare in
  Alcotest.(check (list (float 1.))) "durations in us" [ 250_000.; 500_000. ] durs;
  let pids =
    List.sort_uniq compare (List.map (fun ev -> num_field "pid" ev) xs)
  in
  Alcotest.(check (list (float 0.))) "one pid per locality" [ 0.; 1. ] pids

let test_csv_export () =
  let r0 = Recorder.create ~worker:0 () in
  let r1 = Recorder.create ~worker:2 () in
  task r0 ~start:2. ~dur:0.5 ~value:0;
  Recorder.record r1 Recorder.Idle ~span:0 ~parent:(-1) ~start:2.5 ~dur:0.25
    ~value:0;
  let tl = sink_of [ r0; r1 ] in
  let lines =
    Telemetry.to_csv tl |> String.trim |> String.split_on_char '\n'
  in
  Alcotest.(check string) "header" "worker,start,duration,label" (List.hd lines);
  Alcotest.(check int) "one row per event" 2 (List.length (List.tl lines));
  (* Dense global worker numbering across localities. *)
  let workers =
    List.map (fun l -> List.hd (String.split_on_char ',' l)) (List.tl lines)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "dense ids" [ "0"; "1" ] workers

let test_clock_offset_ingest () =
  let tl = Telemetry.create () in
  Telemetry.ingest tl ~locality:3 ~offset:50.
    [ Journal.event ~worker:0 ~t:100. ~dur:1. ~ev:"task" ~span:4 () ];
  match Telemetry.events tl with
  | [ e ] ->
    Alcotest.(check (float 1e-9)) "offset applied" 150. e.Journal.t;
    Alcotest.(check int) "locality stamped" 3 e.Journal.locality
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l))

(* --------------------------- end to end --------------------------- *)

let coordination = Coordination.Depth_bounded { dcutoff = 2 }

let test_shm_traced () =
  let p = queens_n 8 in
  let untraced_stats = Stats.create () in
  let untraced = Shm.run ~workers:2 ~stats:untraced_stats ~coordination p in
  let tl = Telemetry.create () in
  let stats = Stats.create () in
  let traced = Shm.run ~workers:2 ~stats ~telemetry:tl ~coordination p in
  Alcotest.(check int) "same result" untraced traced;
  (* Tracing must not perturb the search. *)
  Alcotest.(check int) "same node count" untraced_stats.Stats.nodes
    stats.Stats.nodes;
  let tasks =
    List.filter (fun e -> e.Journal.ev = "task") (Telemetry.events tl)
  in
  Alcotest.(check int) "one task event per task" stats.Stats.tasks
    (List.length tasks);
  let json = parse_json (Telemetry.to_chrome tl) in
  let tids =
    get_events json
    |> List.filter (fun ev ->
           match str_field "ph" ev with "X" | "i" -> true | _ -> false)
    |> List.map (fun ev -> num_field "tid" ev)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "a track per worker" 2 (List.length tids);
  (* The derived metrics agree with the trace. *)
  let prom = Telemetry.to_prometheus tl in
  Alcotest.(check bool) "task histogram present" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "# TYPE yewpar_task_duration_seconds histogram")
            prom 0);
       true
     with Not_found -> false)

(* A locality need not record any event: one forked late can find the
   job already finished by the other, its first communicator tick
   handles [Shutdown] before its worker domains first look for work,
   and it ships an empty [Report]. What the system does guarantee is
   that every locality reports (none is lost, so the coordinator
   waited for each [Report]), that every event comes from a locality
   of the run, and that every executed task has its event. *)
let test_dist_traced () =
  let p = queens_n 8 in
  let untraced = Dist.run ~watchdog:120. ~localities:2 ~workers:2 ~coordination p in
  let tl = Telemetry.create () in
  let stats = Stats.create () in
  let traced =
    Dist.run ~watchdog:120. ~stats ~telemetry:tl ~localities:2 ~workers:2
      ~coordination p
  in
  Alcotest.(check int) "same result" untraced traced;
  Alcotest.(check int) "every locality reported" 0 stats.Stats.localities_lost;
  let events = Telemetry.events tl in
  let localities =
    List.sort_uniq compare (List.map (fun e -> e.Journal.locality) events)
  in
  Alcotest.(check bool) "events only from the run's localities" true
    (localities <> [] && List.for_all (fun l -> l = 0 || l = 1) localities);
  let tasks = List.filter (fun e -> e.Journal.ev = "task") events in
  (* [Stats.tasks] counts spawns; the root arrives from the coordinator
     uncounted, so executions exceed spawns by exactly one. *)
  Alcotest.(check int) "one task event per executed task"
    (stats.Stats.tasks + 1) (List.length tasks);
  (* Perfetto structure: localities as process groups. *)
  let json = parse_json (Telemetry.to_chrome tl) in
  let pids =
    get_events json
    |> List.filter (fun ev -> str_field "ph" ev <> "M")
    |> List.map (fun ev -> num_field "pid" ev)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (float 0.))) "a process per recording locality"
    (List.map float_of_int localities) pids

(* One dist run writing both views: the Chrome file and the journal
   must hold the same per-worker task, steal and idle counts, and every
   worker interval must lie inside the job. Each wait is its own idle
   event, and the estimated clock offset only ever shifts a locality's
   events later by a frame's transit time, which keeps them before the
   frame's receipt; the slack covers float rounding. A depth-1 cutoff
   leaves workers waiting on the last few tasks, so idle time is
   plentiful. *)
let test_dist_trace_matches_journal () =
  let path = Filename.temp_file "yewpar_trace" ".jsonl" in
  let w = Journal.create ~path () in
  let tl = Telemetry.create () in
  ignore
    (Dist.run ~watchdog:120. ~telemetry:tl ~journal:w ~localities:2 ~workers:2
       ~coordination:(Coordination.Depth_bounded { dcutoff = 1 })
       (queens_n 10));
  Journal.close w;
  let entries, malformed = Journal.read path in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let counted = [ "task"; "steal"; "idle" ] in
  let tally keys =
    let h = Hashtbl.create 16 in
    List.iter
      (fun k ->
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
      keys;
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [] |> List.sort compare
  in
  let from_journal =
    entries
    |> List.filter (fun e ->
           e.Journal.e_worker >= 0 && List.mem e.Journal.e_ev counted)
    |> List.map (fun e ->
           (e.Journal.e_locality, e.Journal.e_worker, e.Journal.e_ev))
    |> tally
  in
  let from_chrome =
    get_events (parse_json (Telemetry.to_chrome tl))
    |> List.filter (fun ev ->
           str_field "ph" ev <> "M" && List.mem (str_field "name" ev) counted)
    |> List.map (fun ev ->
           ( int_of_float (num_field "pid" ev),
             int_of_float (num_field "tid" ev),
             str_field "name" ev ))
    |> tally
  in
  let row ((l, w, ev), n) = Printf.sprintf "%d/%d %s x%d" l w ev n in
  Alcotest.(check (list string)) "per-worker counts agree"
    (List.map row from_journal) (List.map row from_chrome);
  Alcotest.(check bool) "tasks were recorded" true
    (List.exists (fun ((_, _, ev), _) -> ev = "task") from_journal);
  let find ev =
    match List.find_opt (fun e -> e.Journal.e_ev = ev) entries with
    | Some e -> e
    | None -> Alcotest.failf "no %s event" ev
  in
  let lo = (find "job_start").Journal.e_at in
  let hi = lo +. (find "job_done").Journal.e_dur in
  let slack = 1e-3 in
  List.iter
    (fun e ->
      if e.Journal.e_worker >= 0 && List.mem e.Journal.e_ev counted then begin
        let s = e.Journal.e_at and f = e.Journal.e_at +. e.Journal.e_dur in
        if s < lo -. slack || f > hi +. slack then
          Alcotest.failf "%s event [%.6f, %.6f] of worker %d/%d outside job [%.6f, %.6f]"
            e.Journal.e_ev s f e.Journal.e_locality e.Journal.e_worker lo hi
      end)
    entries

(* ------------------------- HTTP exporter ------------------------- *)

(* [Http.start] spawns a domain, so these must stay after the dist
   end-to-end test (forking is impossible once a domain exists). *)

(* Split a raw HTTP response into status code, header lines and body,
   and check the invariant every response must satisfy: an exact
   [Content-Length] and [Connection: close]. *)
let check_response ~expect_status raw =
  let hdr_end =
    try Str.search_forward (Str.regexp_string "\r\n\r\n") raw 0
    with Not_found -> Alcotest.failf "no header/body split in %S" raw
  in
  let headers = String.sub raw 0 hdr_end in
  let body = String.sub raw (hdr_end + 4) (String.length raw - hdr_end - 4) in
  let status =
    match String.split_on_char ' ' headers with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "bad status line in %S" headers
  in
  Alcotest.(check int) "status" expect_status status;
  let header name =
    let re = Str.regexp_case_fold (name ^ ": *\\([^\r\n]*\\)") in
    try
      ignore (Str.search_forward re headers 0);
      Some (Str.matched_group 1 headers)
    with Not_found -> None
  in
  Alcotest.(check (option string))
    "content-length matches body"
    (Some (string_of_int (String.length body)))
    (header "Content-Length");
  Alcotest.(check (option string))
    "connection: close" (Some "close") (header "Connection");
  body

let test_http_routes_errors () =
  (* Routes only, no catch-all: unknown paths 404, non-GET 405. *)
  let t = Http.start ~routes:[ ("/ok", fun () -> ("text/plain", "fine")) ] () in
  let port = Http.port t in
  Fun.protect
    ~finally:(fun () -> Http.stop t)
    (fun () ->
      let body = check_response ~expect_status:200 (Http.get ~port "/ok") in
      Alcotest.(check string) "route body" "fine" body;
      let body = check_response ~expect_status:404 (Http.get ~port "/nope") in
      Alcotest.(check bool) "404 has a body" true (String.length body > 0);
      let raw =
        Http.raw ~timeout:5.0 ~port
          "POST /ok HTTP/1.0\r\nContent-Length: 0\r\n\r\n"
      in
      ignore (check_response ~expect_status:405 raw);
      (* An unparsable request line is a 400, not a dropped socket. *)
      let raw = Http.raw ~timeout:5.0 ~port "NOT-EVEN-HTTP\r\n\r\n" in
      ignore (check_response ~expect_status:400 raw);
      (* A Content-Length the server refuses to buffer is a 400 too. *)
      let raw =
        Http.raw ~timeout:5.0 ~port
          "POST /ok HTTP/1.0\r\nContent-Length: 99999999\r\n\r\n"
      in
      ignore (check_response ~expect_status:400 raw))

let test_http_handler () =
  (* A catch-all handler: parsed method and body reach it; exceptions
     become 500s and the server survives them. *)
  let t =
    Http.start
      ~handler:(fun req ->
        if req.Http.path = "/boom" then failwith "kaboom"
        else
          {
            Http.status = 200;
            content_type = "text/plain";
            body = Printf.sprintf "%s:%s" req.Http.meth req.Http.body;
          })
      ()
  in
  let port = Http.port t in
  Fun.protect
    ~finally:(fun () -> Http.stop t)
    (fun () ->
      let status, body = Http.request ~meth:"POST" ~body:"hello" ~port "/echo" in
      Alcotest.(check int) "handler 200" 200 status;
      Alcotest.(check string) "method and body parsed" "POST:hello" body;
      let body = check_response ~expect_status:500 (Http.get ~port "/boom") in
      Alcotest.(check bool) "500 has a body" true (String.length body > 0);
      (* Still alive after the 500. *)
      let status, _ = Http.request ~port "/after" in
      Alcotest.(check int) "server survived the raise" 200 status)

let () =
  Alcotest.run "telemetry"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow;
          Alcotest.test_case "no overflow round-trip" `Quick test_ring_no_overflow;
          Alcotest.test_case "null recorder" `Quick test_null_recorder;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "1-2-5 bucket series" `Quick test_buckets_125;
          Alcotest.test_case "pow2 bucket series" `Quick test_buckets_pow2;
          Alcotest.test_case "histogram cumulative counts" `Quick test_histogram;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_syntax;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace events" `Quick test_chrome_export;
          Alcotest.test_case "csv spans" `Quick test_csv_export;
          Alcotest.test_case "ingest applies clock offset" `Quick
            test_clock_offset_ingest;
        ] );
      (* dist forks localities, which OCaml forbids once domains have
         been spawned — so it must run before any shm test. *)
      ( "end-to-end",
        [
          Alcotest.test_case "dist traced run" `Quick test_dist_traced;
          Alcotest.test_case "dist trace agrees with journal" `Quick
            test_dist_trace_matches_journal;
          Alcotest.test_case "shm traced run" `Quick test_shm_traced;
        ] );
      (* After end-to-end: Http.start spawns a domain. *)
      ( "http",
        [
          Alcotest.test_case "routes, 404, 405, 400" `Quick
            test_http_routes_errors;
          Alcotest.test_case "handler, POST body, 500" `Quick test_http_handler;
        ] );
    ]
