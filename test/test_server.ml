(* The multi-tenant job server: one shared daemon for the whole binary.

   [Server.start] forks the locality fleet, and OCaml 5 forbids forking
   once any domain has been spawned — so the server starts at module
   init, before Alcotest (and the HTTP exporter domain the server itself
   creates) run anything. Tests run sequentially and each drains its own
   jobs, so they see a quiet fleet. *)

module Server = Yewpar_server.Server
module Http = Yewpar_telemetry.Http_export
module J = Yewpar_telemetry.Analyze
module Journal = Yewpar_telemetry.Journal
module Instances = Yewpar_instances.Instances
module Sequential = Yewpar_core.Sequential
module Stats = Yewpar_core.Stats
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec

(* Jobs whose end the test decides, so no case races a search against
   its own HTTP calls. [blocker] never finishes on its own: a binary tree
   40 deep that sleeps 1 ms per expansion, so a worker polls the stop
   flag between steps and a cancel lands at once. [gated] is a 13-node
   tree whose root expansion waits until [release] creates a file the
   forked localities can see, and then completes. *)
let blocker = "test-blocker"
let gated = "test-gated"

let release_path =
  let path = Filename.temp_file "yewpar_release" "" in
  Sys.remove path;
  path

let release () = close_out (open_out release_path)
let () = at_exit (fun () -> try Sys.remove release_path with Sys_error _ -> ())

let test_instances =
  let servable name children =
    let p =
      Problem.count_nodes ~codec:(Codec.marshal ()) ~name ~space:() ~root:0
        ~children ()
    in
    match Server.servable p ~show:string_of_int with
    | Ok sv -> (name, sv)
    | Error e -> failwith e
  in
  [ servable blocker (fun () d ->
        if d >= 40 then Seq.empty
        else begin
          Unix.sleepf 0.001;
          Seq.init 2 (fun _ -> d + 1)
        end);
    servable gated (fun () d ->
        if d = 0 then
          while not (Sys.file_exists release_path) do Unix.sleepf 0.001 done;
        if d >= 2 then Seq.empty else Seq.init 3 (fun _ -> d + 1)) ]

let registry =
  List.filter_map
    (fun i ->
      let (Instances.Packed (p, show)) = Lazy.force i.Instances.problem in
      match Server.servable p ~show with
      | Ok sv -> Some (i.Instances.name, sv)
      | Error _ -> None)
    (Instances.all ())
  @ test_instances

let journal_path = Filename.temp_file "yewpar_serve" ".jsonl"
let () = at_exit (fun () -> try Sys.remove journal_path with Sys_error _ -> ())

let server =
  Server.start
    ~config:
      {
        Server.default_config with
        Server.localities = 2;
        workers = 2;
        max_jobs = 2;
        queue_depth = 2;
        journal = Some journal_path;
      }
    ~registry ()

let port = Server.port server
let () = at_exit (fun () -> Server.stop server)

let http ?body ?(meth = "GET") path =
  Http.request ?body ~meth ~port path

let post_job ?(localities = 1) problem skeleton =
  let body =
    Printf.sprintf {|{"problem": "%s", "skeleton": "%s", "localities": %d}|}
      problem skeleton localities
  in
  http ~meth:"POST" ~body "/jobs"

let job_id body =
  int_of_float (J.num_or (-1.) (J.member "id" (J.parse_json body)))

(* The jobs the running case submitted, cancelled if it fails. *)
let mine = ref []

let submitted ?localities problem skeleton =
  let status, body = post_job ?localities problem skeleton in
  Alcotest.(check int) (problem ^ ": accepted") 202 status;
  let id = job_id body in
  mine := id :: !mine;
  id

let poll_terminal id =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let _, body = http (Printf.sprintf "/jobs/%d" id) in
    let doc = J.parse_json body in
    match J.str_or "" (J.member "state" doc) with
    | "done" | "failed" | "cancelled" -> doc
    | _ when Unix.gettimeofday () > deadline ->
      Alcotest.failf "job %d did not reach a terminal state in 60s" id
    | _ ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let state doc = J.str_or "?" (J.member "state" doc)

(* Wait until the scheduler has started job [id] on the fleet. *)
let await_running id =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let _, body = http (Printf.sprintf "/jobs/%d" id) in
    match state (J.parse_json body) with
    | "running" -> ()
    | "queued" when Unix.gettimeofday () <= deadline ->
      Unix.sleepf 0.005;
      go ()
    | s -> Alcotest.failf "job %d is %s, not running" id s
  in
  go ()

(* Unwrap a nested object member ([J.member] is option-returning). *)
let sub name doc = Option.value ~default:J.Null (J.member name doc)

(* Wait for the fleet to go quiet so the next test starts clean. *)
let drain () =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let _, body = http "/status" in
    let doc = J.parse_json body in
    let fleet = sub "fleet" doc in
    let busy = J.num_or nan (J.member "busy" fleet) in
    if busy = 0. then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "fleet did not drain in 60s"
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Admission control and error paths.                                  *)
(* ------------------------------------------------------------------ *)

let test_bad_requests () =
  let status, body = http ~meth:"POST" ~body:"{not json" "/jobs" in
  Alcotest.(check int) "bad JSON -> 400" 400 status;
  Alcotest.(check bool) "error body" true
    (J.str_or "" (J.member "error" (J.parse_json body)) <> "");
  let status, _ = post_job "no-such-problem" "depthbounded:2" in
  Alcotest.(check int) "unknown problem -> 400" 400 status;
  let status, _ = post_job "queens-8" "no-such-skeleton" in
  Alcotest.(check int) "unknown skeleton -> 400" 400 status;
  let status, body = post_job "queens-8" "seq" in
  Alcotest.(check int) "seq skeleton -> 400" 400 status;
  Alcotest.(check bool) "seq rejection is explained" true
    (J.str_or "" (J.member "error" (J.parse_json body)) <> "");
  let status, body = post_job "queens-8" "ordered:2" in
  Alcotest.(check int) "ordered skeleton -> 400" 400 status;
  Alcotest.(check bool) "ordered rejection is explained" true
    (J.str_or "" (J.member "error" (J.parse_json body)) <> "");
  let status, _ = post_job ~localities:99 "queens-8" "depthbounded:2" in
  Alcotest.(check int) "too many localities -> 400" 400 status

let test_unknown_job () =
  let status, _ = http "/jobs/999999" in
  Alcotest.(check int) "GET unknown -> 404" 404 status;
  let status, _ = http ~meth:"DELETE" "/jobs/999999" in
  Alcotest.(check int) "DELETE unknown -> 404" 404 status;
  let status, _ = http "/jobs/notanumber" in
  Alcotest.(check int) "GET garbage id -> 404" 404 status

(* ------------------------------------------------------------------ *)
(* Per-job stats isolation: two concurrent jobs, each matching a solo
   run of the same instance exactly.                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_isolation () =
  (* Oracle: the sequential skeleton. Enumeration never prunes, so any
     exact parallel run must visit exactly the same node set. *)
  let inst = Instances.find "queens-10" in
  let (Instances.Packed (p, show)) = Lazy.force inst.Instances.problem in
  let expected_result, oracle = Sequential.search_with_stats p in
  let expected_result = show expected_result in
  let a = submitted "queens-10" "depthbounded:2" in
  let b = submitted "queens-10" "budget:1000" in
  let doc_a = poll_terminal a and doc_b = poll_terminal b in
  Alcotest.(check string) "job a done" "done" (state doc_a);
  Alcotest.(check string) "job b done" "done" (state doc_b);
  (* Both genuinely ran at the same time on the shared fleet. *)
  let num k doc = J.num_or nan (J.member k doc) in
  Alcotest.(check bool) "jobs overlapped" true
    (num "started" doc_a < num "finished" doc_b
    && num "started" doc_b < num "finished" doc_a);
  List.iter
    (fun (name, id) ->
      let status, body = http (Printf.sprintf "/jobs/%d/result" id) in
      Alcotest.(check int) (name ^ ": result 200") 200 status;
      let doc = J.parse_json body in
      Alcotest.(check string)
        (name ^ ": result matches solo run")
        expected_result
        (J.str_or "" (J.member "result" doc));
      let stats = sub "stats" doc in
      Alcotest.(check int)
        (name ^ ": node count matches solo run")
        oracle.Stats.nodes
        (int_of_float (J.num_or nan (J.member "nodes" stats))))
    [ ("a", a); ("b", b) ];
  drain ()

(* ------------------------------------------------------------------ *)
(* Cancellation frees the slots (and their leases), letting a queued
   job start; the other running job is undisturbed.                    *)
(* ------------------------------------------------------------------ *)

let test_cancel_frees_slots () =
  let a = submitted blocker "depthbounded:2" in
  let b = submitted gated "depthbounded:2" in
  await_running a;
  await_running b;
  let c = submitted "queens-8" "depthbounded:2" in
  (* Both slots are taken by a and b, so c must wait. *)
  let _, body = http (Printf.sprintf "/jobs/%d" c) in
  Alcotest.(check string) "c queued behind the fleet" "queued"
    (state (J.parse_json body));
  release ();
  let status, _ = http ~meth:"DELETE" (Printf.sprintf "/jobs/%d" a) in
  Alcotest.(check bool) "DELETE running/queued a" true
    (status = 200 || status = 202);
  let doc_a = poll_terminal a in
  Alcotest.(check string) "a cancelled" "cancelled" (state doc_a);
  (* The freed slot lets c run; b was never disturbed. *)
  let doc_c = poll_terminal c in
  Alcotest.(check string) "c ran after the cancel" "done" (state doc_c);
  let doc_b = poll_terminal b in
  Alcotest.(check string) "b undisturbed" "done" (state doc_b);
  (* Cancelling a terminal job is a conflict, not a repeat. *)
  let status, _ = http ~meth:"DELETE" (Printf.sprintf "/jobs/%d" a) in
  Alcotest.(check int) "re-DELETE -> 409" 409 status;
  drain ();
  (* The fleet survived: both slots are reusable. *)
  let _, body = http "/status" in
  let fleet = sub "fleet" (J.parse_json body) in
  Alcotest.(check int) "no slots were retired" 0
    (int_of_float (J.num_or nan (J.member "dead" fleet)))

(* ------------------------------------------------------------------ *)
(* Queue overflow answers 429 without touching running jobs.           *)
(* ------------------------------------------------------------------ *)

let test_queue_overflow () =
  (* 2 running + queue_depth 2 waiting fills the server. *)
  let running = [ submitted blocker "depthbounded:2";
                  submitted blocker "depthbounded:2" ] in
  List.iter await_running running;
  let queued = [ submitted "queens-8" "depthbounded:2";
                 submitted "queens-8" "budget:1000" ] in
  let status, body = post_job "queens-8" "depthbounded:2" in
  Alcotest.(check int) "over queue depth -> 429" 429 status;
  Alcotest.(check bool) "429 explains itself" true
    (J.str_or "" (J.member "error" (J.parse_json body)) <> "");
  (* Cancel the blockers; the queued jobs then run to completion. *)
  List.iter
    (fun id -> ignore (http ~meth:"DELETE" (Printf.sprintf "/jobs/%d" id)))
    running;
  List.iter
    (fun id ->
      Alcotest.(check string) "queued job completed" "done"
        (state (poll_terminal id)))
    queued;
  List.iter (fun id -> ignore (poll_terminal id)) running;
  drain ()

(* ------------------------------------------------------------------ *)
(* Result readiness.                                                   *)
(* ------------------------------------------------------------------ *)

let test_result_readiness () =
  let id = submitted blocker "depthbounded:2" in
  let status, _ = http (Printf.sprintf "/jobs/%d/result" id) in
  Alcotest.(check int) "result before terminal -> 409" 409 status;
  let status, _ = http ~meth:"DELETE" (Printf.sprintf "/jobs/%d" id) in
  Alcotest.(check bool) "cancelled" true (status = 200 || status = 202);
  ignore (poll_terminal id);
  let status, body = http (Printf.sprintf "/jobs/%d/result" id) in
  Alcotest.(check int) "result after terminal -> 200" 200 status;
  let doc = J.parse_json body in
  Alcotest.(check string) "state is cancelled" "cancelled" (state doc);
  Alcotest.(check bool) "no rendered result" true
    (J.member "result" doc = None);
  drain ()

(* ------------------------------------------------------------------ *)
(* Introspection endpoints.                                            *)
(* ------------------------------------------------------------------ *)

let test_introspection () =
  let status, body = http "/problems" in
  Alcotest.(check int) "/problems 200" 200 status;
  let doc = J.parse_json body in
  let names =
    match J.member "problems" doc with
    | Some (J.Arr xs) ->
      List.filter_map (function J.Str s -> Some s | _ -> None) xs
    | _ -> []
  in
  Alcotest.(check bool) "queens-10 served" true (List.mem "queens-10" names);
  Alcotest.(check bool) "registry size matches" true
    (List.length names = List.length registry);
  let status, body = http "/metrics" in
  Alcotest.(check int) "/metrics 200" 200 status;
  Alcotest.(check bool) "latency histogram exported" true
    (let re = Str.regexp_string "yewpar_serve_job_seconds_count" in
     try ignore (Str.search_forward re body 0); true with Not_found -> false);
  let status, body = http "/status" in
  Alcotest.(check int) "/status 200" 200 status;
  let doc = J.parse_json body in
  let fleet = sub "fleet" doc in
  Alcotest.(check int) "2 slots" 2
    (int_of_float (J.num_or nan (J.member "slots" fleet)));
  (* Per-slot detail rides alongside the fleet summary. *)
  let slots =
    match J.member "slots" doc with Some (J.Arr xs) -> xs | _ -> []
  in
  Alcotest.(check int) "slots array has one entry per slot" 2
    (List.length slots);
  List.iteri
    (fun i slot ->
      Alcotest.(check int)
        (Printf.sprintf "slot %d: numbered" i)
        i
        (int_of_float (J.num_or nan (J.member "slot" slot)));
      let st = J.str_or "?" (J.member "state" slot) in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d: known state" i)
        true
        (List.mem st [ "free"; "busy"; "dead" ]);
      Alcotest.(check bool)
        (Printf.sprintf "slot %d: has a pid" i)
        true
        (J.member "pid" slot <> None))
    slots

(* ------------------------------------------------------------------ *)
(* The serve journal: every job's lifecycle lands in one trace.        *)
(* ------------------------------------------------------------------ *)

let test_serve_journal () =
  let id = submitted "queens-8" "depthbounded:2" in
  let doc = poll_terminal id in
  Alcotest.(check string) "traced job done" "done" (state doc);
  drain ();
  (* The journal writer flushes each write, so the events are on disk
     by the time the job is terminal. *)
  let entries, malformed = Journal.read journal_path in
  Alcotest.(check int) "serve journal has no malformed lines" 0 malformed;
  let trace = Printf.sprintf "job-%d" id in
  let mine =
    List.filter (fun e -> e.Journal.e_trace = trace) entries
  in
  Alcotest.(check bool) "job has journal events" true (mine <> []);
  let evs = List.map (fun e -> e.Journal.e_ev) mine in
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        (Printf.sprintf "trace %s has %s" trace ev)
        true (List.mem ev evs))
    [ "job_submitted"; "job_scheduled"; "job_finished" ];
  (* The coordinator's lease tree lands under the same per-job trace,
     so the server journal is analyzable job by job. *)
  Alcotest.(check bool) "lease events share the job trace" true
    (List.mem "lease_issue" evs);
  Alcotest.(check bool) "job_start/job_done bracket the search" true
    (List.mem "job_start" evs && List.mem "job_done" evs);
  (* Submission order: submitted before scheduled before finished. *)
  let first ev =
    match List.find_opt (fun e -> e.Journal.e_ev = ev) mine with
    | Some e -> e.Journal.e_ts
    | None -> nan
  in
  Alcotest.(check bool) "lifecycle events are ordered" true
    (first "job_submitted" <= first "job_scheduled"
    && first "job_scheduled" <= first "job_finished")

(* A failing case cancels its own jobs and waits for a quiet fleet, so
   its failure does not cascade into the cases after it. *)
let isolated f () =
  mine := [];
  try f ()
  with e ->
    release ();
    List.iter
      (fun id -> ignore (http ~meth:"DELETE" (Printf.sprintf "/jobs/%d" id)))
      !mine;
    (try drain () with _ -> ());
    raise e

let () =
  Alcotest.run "server"
    [
      ( "admission",
        [
          Alcotest.test_case "bad requests -> 400" `Quick
            (isolated test_bad_requests);
          Alcotest.test_case "unknown job -> 404" `Quick
            (isolated test_unknown_job);
          Alcotest.test_case "queue overflow -> 429" `Quick
            (isolated test_queue_overflow);
        ] );
      ( "jobs",
        [
          Alcotest.test_case "concurrent jobs match solo runs" `Quick
            (isolated test_stats_isolation);
          Alcotest.test_case "cancel frees slots for queued job" `Quick
            (isolated test_cancel_frees_slots);
          Alcotest.test_case "result readiness" `Quick
            (isolated test_result_readiness);
        ] );
      ( "introspection",
        [
          Alcotest.test_case "problems, metrics, status" `Quick
            (isolated test_introspection);
          Alcotest.test_case "per-job journal traces" `Quick
            (isolated test_serve_journal);
        ] );
    ]
