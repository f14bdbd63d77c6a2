(* Distributed runtime tests: wire protocol framing (including partial
   reads), transport over socketpairs, and end-to-end multi-process
   searches checked against the sequential skeleton. *)

module Wire = Yewpar_dist.Wire
module Transport = Yewpar_dist.Transport
module Locality = Yewpar_dist.Locality
module Dist = Yewpar_dist.Dist
module Chaos = Yewpar_dist.Chaos
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Sequential = Yewpar_core.Sequential
module Ops = Yewpar_core.Ops
module Engine = Yewpar_core.Engine
module Knowledge = Yewpar_core.Knowledge
module Coordinator = Yewpar_dist.Coordinator
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Progress = Yewpar_core.Progress
module Http_export = Yewpar_telemetry.Http_export
module Analyze = Yewpar_telemetry.Analyze
module Worker = Yewpar_runtime.Worker
module Queens = Yewpar_queens.Queens
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen
module Knapsack = Yewpar_knapsack.Knapsack

(* ------------------------- wire protocol ------------------------- *)

let msg_t : Wire.msg Alcotest.testable =
  Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<msg>") ( = )

let sample_stats () =
  let st = Stats.create () in
  st.Stats.nodes <- 7;
  st.Stats.pruned <- 2;
  st.Stats.backtracks <- 5;
  st.Stats.max_depth <- 3;
  st.Stats.tasks <- 4;
  st.Stats.steal_attempts <- 6;
  st.Stats.steals <- 1;
  st

let sample_heartbeat () =
  Wire.Heartbeat
    {
      clock = 12.625;
      tasks_done = 31;
      pool_depth = 4;
      idle_workers = 1;
      idle_frac = 0.25;
      best = 17;
      trace_dropped = 3;
      nodes = 123;
      progress =
        {
          Yewpar_core.Progress.rows = 2;
          nodes = [| 1; 2 |];
          completed = [| 1; 1 |];
          children = [| 2; 3 |];
          children_sq = [| 4.; 9. |];
        };
      events =
        [
          Yewpar_telemetry.Journal.event ~parent:3 ~worker:1 ~t:12.5 ~dur:0.25
            ~value:2 ~note:"n" ~ev:"task" ~span:9 ();
        ];
    }

let all_msgs () =
  [
    Wire.Task { parent = 7; depth = 3; priority = 0; payload = "abc" };
    Wire.Steal_request;
    Wire.Steal_reply { task = Some (12, 1, "x") };
    Wire.Steal_reply { task = None };
    Wire.Bound_update { value = 42; witness = Some "node" };
    Wire.Bound_update { value = 42; witness = None };
    Wire.Witness { value = 9; payload = "w" };
    Wire.Idle { retired = [ (12, "d1"); (13, "") ] };
    Wire.Idle { retired = [] };
    Wire.Ping;
    Wire.Pong;
    sample_heartbeat ();
    Wire.Report
      {
        residual = Some "r";
        stats = sample_stats ();
        clock = 3.5;
        events =
          [ Yewpar_telemetry.Journal.event ~value:2 ~ev:"journal_drop" ~span:0 () ];
      };
    Wire.Report
      { residual = None; stats = Stats.create (); clock = 0.; events = [] };
    Wire.Failed { message = "boom" };
    Wire.Shutdown;
  ]

let heartbeat_roundtrip () =
  (* Field-level check, not just structural equality through the
     decoder: a frame built from a heartbeat must decode to the exact
     snapshot (floats included). *)
  let dec = Wire.decoder () in
  let b = Wire.to_bytes (sample_heartbeat ()) in
  Wire.feed dec b 0 (Bytes.length b);
  match Wire.next dec with
  | Some
      (Wire.Heartbeat
        { clock; tasks_done; pool_depth; idle_workers; idle_frac; best;
          trace_dropped; nodes; progress; events }) ->
    Alcotest.(check (float 0.)) "clock" 12.625 clock;
    Alcotest.(check int) "tasks_done" 31 tasks_done;
    Alcotest.(check int) "pool_depth" 4 pool_depth;
    Alcotest.(check int) "idle_workers" 1 idle_workers;
    Alcotest.(check (float 0.)) "idle_frac" 0.25 idle_frac;
    Alcotest.(check int) "best" 17 best;
    Alcotest.(check int) "trace_dropped" 3 trace_dropped;
    Alcotest.(check int) "nodes" 123 nodes;
    Alcotest.(check int) "progress rows" 2 progress.Yewpar_core.Progress.rows;
    Alcotest.(check (array int)) "progress children" [| 2; 3 |]
      progress.Yewpar_core.Progress.children;
    (match events with
    | [ e ] ->
      Alcotest.(check string) "event kind" "task" e.Yewpar_telemetry.Journal.ev;
      Alcotest.(check int) "event span" 9 e.Yewpar_telemetry.Journal.span;
      Alcotest.(check int) "event parent" 3 e.Yewpar_telemetry.Journal.parent
    | _ -> Alcotest.fail "heartbeat events did not survive the roundtrip")
  | _ -> Alcotest.fail "heartbeat did not decode as a heartbeat"

let roundtrip_bytewise () =
  (* Feeding one byte at a time must never yield an early or mangled
     message; the frame completes exactly on its last byte. *)
  let dec = Wire.decoder () in
  List.iter
    (fun m ->
      let b = Wire.to_bytes m in
      for i = 0 to Bytes.length b - 2 do
        Wire.feed dec b i 1;
        Alcotest.(check (option msg_t)) "no early message" None (Wire.next dec)
      done;
      Wire.feed dec b (Bytes.length b - 1) 1;
      Alcotest.(check (option msg_t)) "frame completes" (Some m) (Wire.next dec);
      Alcotest.(check int) "no residue" 0 (Wire.pending dec))
    (all_msgs ())

let concatenated_stream () =
  (* Many frames in arbitrary chunkings decode in order with nothing
     left over. *)
  let msgs = all_msgs () in
  let buf = Buffer.create 256 in
  List.iter (fun m -> Buffer.add_bytes buf (Wire.to_bytes m)) msgs;
  let stream = Buffer.to_bytes buf in
  let n = Bytes.length stream in
  List.iter
    (fun chunk ->
      let dec = Wire.decoder () in
      let off = ref 0 in
      while !off < n do
        let len = min chunk (n - !off) in
        Wire.feed dec stream !off len;
        off := !off + len
      done;
      List.iter
        (fun m ->
          Alcotest.(check (option msg_t))
            (Printf.sprintf "in order (chunk %d)" chunk)
            (Some m) (Wire.next dec))
        msgs;
      Alcotest.(check (option msg_t)) "stream exhausted" None (Wire.next dec);
      Alcotest.(check int) "no residue" 0 (Wire.pending dec))
    [ 1; 2; 3; 5; 7; 13; 64; n ]

let corrupt_length_rejected () =
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.make 4 '\xff') 0 4;
  match Wire.next dec with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "corrupt frame length accepted"

(* --------------------------- transport --------------------------- *)

let transport_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Transport.create a in
  let cb = Transport.create b in
  let msgs = all_msgs () in
  List.iter (Transport.send ca) msgs;
  List.iter
    (fun m -> Alcotest.check msg_t "received" m (Transport.recv ~timeout:10. cb))
    msgs;
  Transport.close ca;
  (match Transport.recv ~timeout:10. cb with
  | exception Transport.Closed -> ()
  | _ -> Alcotest.fail "expected Closed after peer close");
  Transport.close cb

let transport_recv_timeout () =
  (* A silent peer must surface as Timeout near the deadline — not hang
     and not spin. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cb = Transport.create b in
  let t0 = Unix.gettimeofday () in
  (match Transport.recv ~timeout:0.2 cb with
  | exception Transport.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout from a silent peer");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "timed out near the deadline" true
    (elapsed >= 0.15 && elapsed < 5.);
  Transport.close cb;
  Unix.close a

let transport_midframe_close () =
  (* Peer dies after shipping only part of a frame's payload: recv must
     raise Closed, not wait forever for bytes that will never come. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cb = Transport.create b in
  let frame = Wire.to_bytes (Wire.Failed { message = "partial-frame-payload" }) in
  ignore (Unix.write a frame 0 (Bytes.length frame - 5));
  Unix.close a;
  (match Transport.recv ~timeout:5. cb with
  | exception Transport.Closed -> ()
  | _ -> Alcotest.fail "expected Closed on mid-frame EOF");
  Transport.close cb

let transport_truncated_prefix () =
  (* Even the 4-byte length prefix can be cut short by a crash. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cb = Transport.create b in
  let frame = Wire.to_bytes Wire.Steal_request in
  ignore (Unix.write a frame 0 2);
  Unix.close a;
  (match Transport.recv ~timeout:5. cb with
  | exception Transport.Closed -> ()
  | _ -> Alcotest.fail "expected Closed on truncated length prefix");
  Transport.close cb

let transport_send_timeout () =
  (* A peer that never drains: once the socket buffers fill, send must
     back off on EAGAIN and raise Timeout at the deadline instead of
     blocking forever. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
  Unix.setsockopt_int b Unix.SO_RCVBUF 4096;
  let ca = Transport.create a in
  let big = Wire.Failed { message = String.make (1 lsl 22) 'x' } in
  let t0 = Unix.gettimeofday () in
  (match Transport.send ~timeout:0.3 ca big with
  | exception Transport.Timeout -> ()
  | () -> Alcotest.fail "expected Timeout against a stalling peer");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "respected the deadline" true
    (elapsed >= 0.25 && elapsed < 5.);
  Transport.close ca;
  Unix.close b

(* ----------------------------- chaos ----------------------------- *)

let fault_spec s =
  match Chaos.parse s with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let chaos_parse_spec () =
  let faults =
    fault_spec "kill-locality:1@0.2s, drop-frame:Steal_reply:0.25, delay:5ms"
  in
  Alcotest.(check int) "three faults" 3 (List.length faults);
  (match Chaos.plan faults ~seed:7 ~locality:1 with
  | None -> Alcotest.fail "locality 1 must have a plan"
  | Some plan ->
    Alcotest.(check (option (float 1e-9))) "kill time" (Some 0.2)
      plan.Chaos.kill_after;
    Alcotest.(check (float 1e-9)) "delay in seconds" 0.005 plan.Chaos.delay;
    Alcotest.(check bool) "drop spec lowercased" true
      (List.mem_assoc "steal_reply" plan.Chaos.drops));
  (match Chaos.plan faults ~seed:7 ~locality:0 with
  | None -> Alcotest.fail "drops and delay apply to every locality"
  | Some plan ->
    Alcotest.(check (option (float 1e-9))) "kill targets locality 1 only" None
      plan.Chaos.kill_after);
  (* No fault applying to a locality means no plan at all: chaos must
     cost nothing when absent. *)
  (match Chaos.plan (fault_spec "kill-locality:1@0.2s") ~seed:7 ~locality:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "kill-only spec must not plan other localities");
  (* The progress-keyed crash: the earliest lease wins, and it plans
     only its own locality. *)
  let by_lease = fault_spec "kill-locality:2@leases:5,kill-locality:2@leases:3" in
  (match Chaos.plan by_lease ~seed:7 ~locality:2 with
  | None -> Alcotest.fail "locality 2 must have a plan"
  | Some plan ->
    Alcotest.(check (option int)) "kill lease" (Some 3) plan.Chaos.kill_at_lease;
    Alcotest.(check (option (float 1e-9))) "no timed kill" None
      plan.Chaos.kill_after);
  Alcotest.(check bool) "lease kill plans no other locality" true
    (Chaos.plan by_lease ~seed:7 ~locality:0 = None);
  Alcotest.(check string) "lease kill renders back"
    "kill-locality:2@leases:5, kill-locality:2@leases:3"
    (Chaos.describe by_lease);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "bad spec %S accepted" bad))
    [ ""; "explode"; "kill-locality:x@1s"; "kill-locality:1"; "drop-frame:ping:1.5";
      "delay:-3ms"; "kill-locality:1@leases:0"; "kill-locality:1@leases:x";
      "kill-locality:1@laps:3"; "kill-locality:x@leases:3"; "drop-frame:bogus:1.0";
      "drop-frame:report:1.0" ]

let chaos_never_drops_shutdown () =
  (* Even at probability 1.0 Shutdown survives: dropping it would only
     wedge the harness, not exercise the protocol. *)
  match
    Chaos.plan
      (fault_spec "drop-frame:shutdown:1.0,drop-frame:steal_reply:1.0")
      ~seed:3 ~locality:0
  with
  | None -> Alcotest.fail "drop spec must produce a plan"
  | Some plan ->
    for _ = 1 to 100 do
      Alcotest.(check bool) "shutdown never dropped" false
        (Chaos.should_drop plan Wire.Shutdown)
    done;
    Alcotest.(check bool) "other frames do drop at p=1" true
      (Chaos.should_drop plan
         (Wire.Steal_reply { task = Some (1, 0, "x") }))

(* ------------------------- end-to-end runs ------------------------ *)

let dist ?stats ?broadcasts ?(localities = 2) ?(workers = 2) ~coordination p =
  Dist.run ?stats ?broadcasts ~watchdog:120. ~localities ~workers ~coordination p

let coords =
  [
    ("depth2", Coordination.Depth_bounded { dcutoff = 2 });
    ("stack", Coordination.Stack_stealing { chunked = false });
    ("stack-chunked", Coordination.Stack_stealing { chunked = true });
    ("budget50", Coordination.Budget { budget = 50 });
  ]

let queens_n n = Queens.count_solutions (Queens.instance ~n)

(* ------------------------- delta folding ------------------------- *)

(* A sequential run whose processed nodes are split at random among
   [leases] lease cells, as a locality's ledger splits them, with every
   lease's delta encoded for the wire — shuffled, so the coordinator may
   have retired them in any order. *)
let leased_deltas (type s n r) rng ~leases (p : (s, n, r) Problem.t) codec =
  match Ops.algebra p.Problem.kind with
  | Ops.Algebra alg ->
    let k = Knowledge.make_atomic () in
    let cells = Array.init leases (fun _ -> ref alg.Ops.empty) in
    let views = Array.map (fun c -> alg.Ops.view c k) cells in
    let process n = views.(Random.State.int rng leases).Ops.process n in
    let e =
      Engine.make ~space:p.Problem.space ~children:p.Problem.children
        ~root_depth:0 p.Problem.root
    in
    let v = views.(0) in
    if process p.Problem.root then
      ignore
        (Engine.run ~prune_rest:v.Ops.prune_siblings ?keep:v.Ops.keep ~process
           ~stop:(Atomic.make false) e
          : bool);
    Array.to_list cells
    |> List.map (fun c -> (Random.State.bits rng, alg.Ops.encode codec !c))
    |> List.sort compare |> List.map snd

let combine_leased rng ~leases (p : (_, _, 'r) Problem.t) : 'r =
  let codec = Option.get p.Problem.codec in
  Dist.combine p codec
    {
      Coordinator.deltas = leased_deltas rng ~leases p codec;
      residuals = [];
      witness = None;
      stats = Stats.create ();
      broadcasts = 0;
      failure = None;
      dead = [||];
      abandoned = false;
    }

let delta_folding_order_free =
  let queens = queens_n 7 in
  let g = Gen.uniform ~seed:41 24 0.6 in
  let mc = Mc.max_clique g in
  let knap =
    Knapsack.problem
      (Knapsack.Generate.weakly_correlated ~seed:43 ~n:12 ~max_value:100)
  in
  let hidden = Gen.hidden_clique ~seed:42 30 0.3 7 in
  let sat = Mc.k_clique hidden ~k:7 and unsat = Mc.k_clique hidden ~k:25 in
  let expected_count = Sequential.search queens in
  let expected_mc = (Sequential.search mc).Mc.size in
  let expected_knap = (Sequential.search knap).Knapsack.profit in
  QCheck.Test.make ~name:"leased deltas fold to the sequential answer"
    ~count:40
    QCheck.(pair small_nat (int_range 1 12))
    (fun (seed, leases) ->
      let rng = Random.State.make [| seed |] in
      combine_leased rng ~leases queens = expected_count
      && (combine_leased rng ~leases mc).Mc.size = expected_mc
      && (combine_leased rng ~leases knap).Knapsack.profit = expected_knap
      && (match combine_leased rng ~leases sat with
         | Some n ->
           List.length (Mc.vertices_of n) >= 7
           && Yewpar_graph.Graph.is_clique hidden (Mc.vertices_of n)
         | None -> false)
      && combine_leased rng ~leases unsat = None)

let queens_matches () =
  let p = queens_n 8 in
  let expected, seq_stats = Sequential.search_with_stats p in
  List.iter
    (fun (name, coordination) ->
      let stats = Stats.create () in
      let r = dist ~stats ~coordination p in
      Alcotest.(check int) (Printf.sprintf "queens-8 (%s)" name) expected r;
      (* Enumeration never prunes, so the distributed node total must
         equal the sequential one: nothing lost, nothing done twice. *)
      Alcotest.(check int)
        (Printf.sprintf "total nodes (%s)" name)
        seq_stats.Stats.nodes stats.Stats.nodes;
      Alcotest.(check bool)
        (Printf.sprintf "attempts >= steals (%s)" name)
        true
        (stats.Stats.steal_attempts >= stats.Stats.steals);
      Alcotest.(check bool)
        (Printf.sprintf "stealing happened (%s)" name)
        true (stats.Stats.steal_attempts >= 1))
    coords;
  (* Depth-bounded spawns dozens of coordinator-mediated tasks, so the
     second locality must actually receive some. *)
  let stats = Stats.create () in
  ignore (dist ~stats ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) p);
  Alcotest.(check bool) "successful steals" true (stats.Stats.steals >= 1)

let depth_profile_invariants () =
  (* The per-depth profile shipped back inside the Report frames must
     column-sum to the scalar counters of the same run: every node,
     prune, spawn and applied bound lands in exactly one depth bucket
     (comms-thread floor adoptions are booked at depth 0). *)
  let g = Gen.uniform ~seed:41 32 0.6 in
  let p = Mc.max_clique g in
  let stats = Stats.create () in
  ignore (dist ~stats ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) p);
  let nodes, pruned, spawned, bounds = Depth_profile.totals stats.Stats.depths in
  Alcotest.(check int) "nodes column" stats.Stats.nodes nodes;
  Alcotest.(check int) "pruned column" stats.Stats.pruned pruned;
  Alcotest.(check int) "spawned column" stats.Stats.tasks spawned;
  Alcotest.(check int) "bounds column" stats.Stats.bound_updates bounds;
  Alcotest.(check bool) "profile populated" false
    (Depth_profile.is_empty stats.Stats.depths);
  Alcotest.(check bool) "pruning happened somewhere" true (pruned > 0)

let maxclique_matches () =
  let g = Gen.uniform ~seed:41 32 0.6 in
  let p = Mc.max_clique g in
  let expected = (Sequential.search p).Mc.size in
  List.iter
    (fun (name, coordination) ->
      let broadcasts = ref 0 in
      let node = dist ~broadcasts ~coordination p in
      Alcotest.(check int) (Printf.sprintf "maxclique (%s)" name) expected
        node.Mc.size;
      Alcotest.(check bool)
        (Printf.sprintf "broadcast count sane (%s)" name)
        true (!broadcasts >= 0))
    coords

let knapsack_matches () =
  let inst = Knapsack.Generate.weakly_correlated ~seed:43 ~n:16 ~max_value:100 in
  let p = Knapsack.problem inst in
  let expected = Knapsack.exact_dp inst in
  List.iter
    (fun (name, coordination) ->
      let node = dist ~coordination p in
      Alcotest.(check int) (Printf.sprintf "knapsack (%s)" name) expected
        node.Knapsack.profit)
    coords

let decision_matches () =
  let g = Gen.hidden_clique ~seed:42 30 0.3 7 in
  List.iter
    (fun (name, coordination) ->
      (match dist ~coordination (Mc.k_clique g ~k:7) with
      | Some node ->
        Alcotest.(check bool)
          (Printf.sprintf "witness valid (%s)" name)
          true
          (Yewpar_graph.Graph.is_clique g (Mc.vertices_of node))
      | None -> Alcotest.fail (Printf.sprintf "7-clique not found (%s)" name));
      match dist ~coordination (Mc.k_clique g ~k:25) with
      | Some _ -> Alcotest.fail (Printf.sprintf "no 25-clique exists (%s)" name)
      | None -> ())
    coords

(* Work leaves a locality only when another one starves, so a lone
   locality is handed the root lease and nothing else, whatever its
   Budget skeleton spawns. *)
let lone_locality_one_lease () =
  let p = queens_n 10 in
  let stats = Stats.create () in
  Alcotest.(check int) "queens-10" (Sequential.search p)
    (dist ~stats ~localities:1 ~workers:2
       ~coordination:(Coordination.Budget { budget = 100 })
       p);
  Alcotest.(check bool)
    (Printf.sprintf "at most one wire steal (got %d)" stats.Stats.steals)
    true (stats.Stats.steals <= 1)

(* The demand path alone still spreads work: on two one-worker
   localities the journal shows leases issued to both. queens-13 runs
   five times as long as queens-12, so a locality that starts late
   under load still starves while the other has work to shed. *)
let demand_path_spreads_leases () =
  let module Journal = Yewpar_telemetry.Journal in
  let p = queens_n 13 in
  let path = Filename.temp_file "yewpar_spread" ".jsonl" in
  let w = Journal.create ~path () in
  let r =
    Dist.run ~journal:w ~watchdog:120. ~localities:2 ~workers:1
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      p
  in
  Journal.close w;
  let entries, _ = Journal.read path in
  Sys.remove path;
  Alcotest.(check int) "queens-13" 73712 r;
  List.iter
    (fun loc ->
      Alcotest.(check bool)
        (Printf.sprintf "locality %d holds a lease" loc)
        true
        (List.exists
           (fun e ->
             e.Journal.e_ev = "lease_issue" && e.Journal.e_locality = loc)
           entries))
    [ 0; 1 ]

let single_locality_single_worker () =
  let p = queens_n 7 in
  let expected = Sequential.search p in
  Alcotest.(check int) "1x1 topology" expected
    (dist ~localities:1 ~workers:1
       ~coordination:(Coordination.Budget { budget = 50 })
       p)

let sequential_delegates () =
  let p = queens_n 6 in
  Alcotest.(check int) "sequential passthrough" (Sequential.search p)
    (Dist.run ~localities:2 ~workers:2 ~coordination:Coordination.Sequential p)

let invalid_arguments () =
  let p = queens_n 6 in
  Alcotest.check_raises "zero localities rejected"
    (Invalid_argument "Dist.run: localities must be >= 1") (fun () ->
      ignore
        (Dist.run ~localities:0 ~workers:2
           ~coordination:(Coordination.Budget { budget = 1 })
           p));
  (* A problem without a task codec cannot cross process boundaries. *)
  let no_codec =
    Problem.count_nodes ~name:"local-only" ~space:() ~root:0
      ~children:(fun () _ -> Seq.empty)
      ()
  in
  Alcotest.check_raises "codec-less problem rejected"
    (Invalid_argument
       "Dist.run: problem \"local-only\" has no task codec and cannot be \
        distributed") (fun () ->
      ignore
        (Dist.run ~localities:2 ~workers:2
           ~coordination:(Coordination.Budget { budget = 1 })
           no_codec))

type tree = T of int * tree list

exception Generator_failure

let generator_exceptions_propagate () =
  (* A generator raising inside a locality must abort the whole search
     with a Failure, not deadlock the cluster. *)
  let visits = Atomic.make 0 in
  let exploding =
    Problem.count_nodes ~codec:(Codec.marshal ()) ~name:"exploding" ~space:()
      ~root:(T (1, []))
      ~children:(fun () _ ->
        if Atomic.fetch_and_add visits 1 > 40 then raise Generator_failure
        else Seq.init 3 (fun i -> T (i, [])))
      ()
  in
  match dist ~coordination:(Coordination.Budget { budget = 5 }) exploding with
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the exception" true
      (let re = Str.regexp_string "Generator_failure" in
       match Str.search_forward re msg 0 with
       | _ -> true
       | exception Not_found -> false)
  | exception e ->
    Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected the locality failure to surface"

let children_reaped () =
  ignore
    (dist ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) (queens_n 6));
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.fail (Printf.sprintf "child %d left unreaped" pid)

let orphan_self_reaps () =
  (* A locality whose coordinator dies must notice the EOF and exit
     nonzero by itself instead of spinning forever. *)
  let coord_fd, loc_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Unix.close coord_fd;
        let conn = Transport.create loc_fd in
        Locality.run ~conn ~workers:2
          ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
          (queens_n 8);
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    Unix.close loc_fd;
    (* Kill the coordinator side immediately: the locality is now an
       orphan. *)
    Unix.close coord_fd;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "orphan exited reporting failure" true
      (status = Unix.WEXITED 1)

let final_report_frame () =
  (* The test plays the coordinator for one locality on queens-8: it
     leases the root on the first steal request, leaves later requests
     unanswered, and shuts the locality down once lease 1 retires. The
     locality's last frame must be its one Report, carrying the whole
     job's counters. *)
  let p = queens_n 8 in
  let codec = Option.get p.Problem.codec in
  let _, seq_stats = Sequential.search_with_stats p in
  let coord_fd, loc_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Unix.close coord_fd;
        Locality.run ~conn:(Transport.create loc_fd) ~workers:1
          ~coordination:Coordination.Sequential p;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    Unix.close loc_fd;
    let conn = Transport.create coord_fd in
    let requests = ref 0 and delta = ref None and frames = ref [] in
    Fun.protect
      ~finally:(fun () ->
        Transport.close conn;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        (try
           while true do
             let m = Transport.recv ~timeout:30. conn in
             frames := m :: !frames;
             match m with
             | Wire.Steal_request ->
               incr requests;
               if !requests = 1 then
                 Transport.send conn
                   (Wire.Steal_reply
                      { task = Some (1, 0, codec.Codec.encode p.Problem.root) })
             | Wire.Idle { retired } -> (
               match List.assoc_opt 1 retired with
               | Some d ->
                 delta := Some d;
                 Transport.send conn Wire.Shutdown
               | None -> ())
             | _ -> ()
           done
         with Transport.Closed -> ());
        let is_report = function Wire.Report _ -> true | _ -> false in
        Alcotest.(check int) "exactly one Report" 1
          (List.length (List.filter is_report !frames));
        match !frames with
        | Wire.Report { residual; stats; _ } :: _ ->
          Alcotest.(check bool) "a residual" true (residual <> None);
          Alcotest.(check int) "nodes as Sequential" seq_stats.Stats.nodes
            stats.Stats.nodes;
          Alcotest.(check int) "steal attempts = Steal_request frames"
            !requests stats.Stats.steal_attempts;
          Alcotest.(check int) "one wire steal" 1 stats.Stats.steals;
          (match (Ops.algebra p.Problem.kind, !delta) with
          | Ops.Algebra alg, Some d ->
            Alcotest.(check int) "retired delta" 92
              (alg.Ops.answer (alg.Ops.decode codec d))
          | _, None -> Alcotest.fail "lease 1 never retired")
        | _ -> Alcotest.fail "the last frame is not the Report")

(* ------------------------- fault tolerance ----------------------- *)

let no_chaos_clean_counters () =
  (* A healthy run must report a clean bill: no deaths, no replays. *)
  let p = queens_n 10 in
  let expected = Sequential.search p in
  let stats = Stats.create () in
  let r = dist ~stats ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) p in
  Alcotest.(check int) "queens-10" expected r;
  Alcotest.(check int) "no localities lost" 0 stats.Stats.localities_lost;
  Alcotest.(check int) "no leases reissued" 0 stats.Stats.leases_reissued;
  Alcotest.(check int) "no respawns" 0 stats.Stats.respawns

(* Work leaves a locality only when another one starves, so whether
   locality 1 is handed the lease a crash is keyed to depends on who
   took the root and on how long each share lasts: a locality that
   keeps its first share busy until the run ends (the root holder, or
   one starved of CPU) is handed no other. [until_crash run] calls
   [run stats] on fresh stats until the crash has fired, three runs at
   most, and returns the last stats. [run] checks its own result, so a
   run the crash missed must be exact as well. *)
let until_crash run =
  let rec go attempt =
    let stats = Stats.create () in
    run stats;
    if stats.Stats.localities_lost > 0 || attempt = 3 then stats
    else go (attempt + 1)
  in
  go 1

(* The queens-12 crash the fault-tolerance and progress cases share:
   locality 1 of three one-worker localities dies on receiving its
   second lease. A one-worker locality asks for work only once it has
   drained, and it retires its leases in the same communicator tick as
   that request, so the crash lands mid-search after locality 1 has
   retired a lease: one whose deltas must not count twice and whose
   depth tallies die with it. With [journal], each run rewrites that
   file. *)
let crash_queens ?journal ?max_respawns ?failure_timeout () =
  until_crash (fun stats ->
      let module Journal = Yewpar_telemetry.Journal in
      let w = Option.map (fun path -> Journal.create ~path ()) journal in
      let r =
        Dist.run ~stats ?journal:w ?max_respawns ?failure_timeout
          ~watchdog:120. ~localities:3 ~workers:1
          ~chaos:(fault_spec "kill-locality:1@leases:2")
          ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
          (queens_n 12)
      in
      Option.iter Journal.close w;
      Alcotest.(check int) "queens-12 exact despite the crash" 14200 r)

let chaos_kill_enumerate () =
  (* The tentpole acceptance test: SIGKILL one of three localities
     mid-run; the survivors replay its leases and the count is exact —
     nothing lost, nothing double-counted. *)
  let stats = crash_queens () in
  Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost;
  Alcotest.(check bool) "leases were replayed" true
    (stats.Stats.leases_reissued >= 1)

let chaos_kill_optimise () =
  (* Same crash under optimisation: the incumbent (and its witness)
     must survive the finder's death via Bound_update replication. *)
  let g = Gen.uniform ~seed:47 110 0.8 in
  let p = Mc.max_clique g in
  let expected = (Sequential.search p).Mc.size in
  let stats =
    until_crash (fun stats ->
        let node =
          Dist.run ~stats ~watchdog:120. ~localities:3 ~workers:2
            ~chaos:(fault_spec "kill-locality:1@leases:3")
            ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
            p
        in
        Alcotest.(check int) "maxclique exact despite the crash" expected
          node.Mc.size;
        Alcotest.(check bool) "clique is valid" true
          (Yewpar_graph.Graph.is_clique g (Mc.vertices_of node)))
  in
  Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost

let chaos_kill_decide () =
  (* Same crash under a decision search, whose result travels as lease
     deltas, residuals and the coordinator's Witness. A witness can end
     the sat search before locality 1 has been handed a third lease, so
     the crash is keyed to its first. *)
  let run p =
    let stats = Stats.create () in
    let r =
      Dist.run ~stats ~watchdog:120. ~localities:3 ~workers:2
        ~chaos:(fault_spec "kill-locality:1@leases:1")
        ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
        p
    in
    Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost;
    r
  in
  let g = Gen.uniform ~seed:47 150 0.8 in
  (match run (Mc.k_clique g ~k:24) with
  | Some node ->
    let vs = Mc.vertices_of node in
    Alcotest.(check bool) "witness reaches the target" true (List.length vs >= 24);
    Alcotest.(check bool) "witness is a clique" true
      (Yewpar_graph.Graph.is_clique g vs)
  | None -> Alcotest.fail "24-clique not found despite the crash");
  let unsat = Mc.k_clique (Gen.uniform ~seed:47 120 0.8) ~k:22 in
  Alcotest.(check bool) "sequential oracle: no 22-clique" true
    (Sequential.search unsat = None);
  Alcotest.(check bool) "no witness despite the crash" true (run unsat = None)

let chaos_respawn () =
  (* With a standby spare the cluster heals back to full strength. *)
  let stats = crash_queens ~max_respawns:1 () in
  Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost;
  Alcotest.(check int) "standby promoted" 1 stats.Stats.respawns

let chaos_drop_needs_lease_timeout () =
  (* A dropped steal reply leaves its lease outstanding until the lease
     timeout revokes it; without one the run never reaches quiescence,
     so it is refused before any locality is forked. *)
  List.iter
    (fun lease_timeout ->
      (match
         Dist.run ?lease_timeout ~watchdog:120. ~localities:2 ~workers:2
           ~chaos:(fault_spec "drop-frame:steal_reply:0.3")
           ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
           (queens_n 6)
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "steal_reply drops ran without a lease timeout");
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | pid, _ -> Alcotest.fail (Printf.sprintf "child %d left behind" pid))
    [ None; Some 0. ]

let chaos_drop_frames () =
  (* Lost steal replies leave the thief empty-handed and the lease
     outstanding; the steal retry plus the lease timeout must recover
     both without double counting. *)
  let p = queens_n 10 in
  let expected = Sequential.search p in
  let stats = Stats.create () in
  let r =
    Dist.run ~stats ~watchdog:120. ~localities:2 ~workers:2 ~lease_timeout:0.5
      ~chaos:(fault_spec "drop-frame:steal_reply:0.3") ~chaos_seed:5
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      p
  in
  Alcotest.(check int) "queens-10 exact under frame loss" expected r;
  Alcotest.(check int) "no locality died" 0 stats.Stats.localities_lost

let chaos_journal_causality () =
  (* A killed locality must leave a causally closed journal: its
     outstanding leases are revoked naming the dead holder, every
     replay names the original (revoked) span as its parent, and every
     parent reference in the file resolves to an emitted span. *)
  let module Journal = Yewpar_telemetry.Journal in
  let path = Filename.temp_file "yewpar_chaos" ".jsonl" in
  let stats =
    crash_queens ~journal:path ~max_respawns:1 ~failure_timeout:2. ()
  in
  Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost;
  let entries, malformed = Journal.read path in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
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
  let by_kind k =
    List.filter (fun e -> e.Journal.e_ev = k) entries
  in
  let dead =
    match by_kind "locality_dead" with
    | e :: _ -> e.Journal.e_locality
    | [] -> Alcotest.fail "no locality_dead event in the journal"
  in
  let rec retired_before_death = function
    | [] -> false
    | e :: rest when e.Journal.e_locality <> dead -> retired_before_death rest
    | e :: rest ->
      e.Journal.e_ev = "lease_retire"
      || (e.Journal.e_ev <> "locality_dead" && retired_before_death rest)
  in
  Alcotest.(check bool) "the dead locality retired a lease before it died" true
    (retired_before_death entries);
  let revoked_outstanding =
    by_kind "lease_revoke"
    |> List.filter (fun e -> e.Journal.e_note = "outstanding")
  in
  Alcotest.(check bool) "outstanding leases were revoked" true
    (revoked_outstanding <> []);
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "revoke of span %d names the dead holder"
           e.Journal.e_span)
        dead e.Journal.e_locality)
    revoked_outstanding;
  let revoked_spans =
    List.map (fun e -> e.Journal.e_span) (by_kind "lease_revoke")
  in
  let replays = by_kind "lease_replay" in
  Alcotest.(check bool) "leases were replayed" true (replays <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "replay span %d descends from a revoked span"
           e.Journal.e_span)
        true
        (List.mem e.Journal.e_parent revoked_spans))
    replays;
  Alcotest.(check bool) "a respawn was journalled" true
    (by_kind "respawn" <> []);
  Alcotest.(check bool) "job_done closes the trace" true
    (by_kind "job_done" <> [])

(* --------------------------- progress ----------------------------- *)

let estimate_of stats =
  Progress.estimate (Progress.of_profile stats.Stats.depths)

let progress_exact_at_quiescence () =
  (* The merged per-depth record at termination closes every stratum:
     the live estimate (no final clamp) must already read exactly 1.0
     on an enumeration. *)
  let stats = Stats.create () in
  let r =
    dist ~stats ~coordination:(Coordination.Stack_stealing { chunked = false })
      (queens_n 10)
  in
  Alcotest.(check int) "queens-10" 724 r;
  let e = estimate_of stats in
  Alcotest.(check bool) "estimator exact" true e.Progress.e_exact;
  Alcotest.(check (float 0.)) "fraction exactly one" 1.0 e.Progress.e_fraction;
  Alcotest.(check (float 0.)) "total = nodes" (float_of_int stats.Stats.nodes)
    e.Progress.e_total

let progress_final_across_replay () =
  (* A crash only revokes-and-replays the dead locality's OUTSTANDING
     leases; the depth tallies of leases it had already retired die
     with it (their result deltas were shipped at retirement, their
     tallies were not), so the raw chain is not guaranteed to close.
     What IS guaranteed — and what pollers rely on — is the final
     clamp: the termination detector is ground truth, so the terminal
     estimate must read exactly 1.0 over the observed count, and the
     raw chain must never have overshot certainty (a live read during
     the crash never claimed completion). *)
  let stats = crash_queens () in
  Alcotest.(check int) "one locality lost" 1 stats.Stats.localities_lost;
  let sample = Progress.of_profile stats.Stats.depths in
  let e = Progress.estimate ~final:true sample in
  Alcotest.(check (float 0.)) "final fraction exactly one" 1.0
    e.Progress.e_fraction;
  Alcotest.(check (float 0.)) "final total = nodes"
    (float_of_int stats.Stats.nodes)
    e.Progress.e_total;
  let raw = Progress.estimate sample in
  Alcotest.(check bool) "raw fraction never overshoots" true
    (raw.Progress.e_fraction <= 1.0);
  Alcotest.(check bool) "raw total covers the observations" true
    (raw.Progress.e_total >= float_of_int (Progress.observed sample))

let contains haystack needle =
  let re = Str.regexp_string needle in
  match Str.search_forward re haystack 0 with
  | _ -> true
  | exception Not_found -> false

let monitor_scrape_midrun () =
  (* A scraper process forked BEFORE any domain exists in this process
     (OCaml 5 forbids forking once domains have been spawned) polls for
     the coordinator's ephemeral port and hits /metrics and /status
     while the search is still in flight, then keeps polling /status
     for the progress rate until the server is gone. queens-13 runs
     long enough (most of a second distributed) that the first scrape
     cannot race the shutdown.

     In between, the scraper takes one /status with every worker held
     still, as test_par does on seq and shm: each locality's workers
     wait in the generator once that locality has made [target] calls,
     until the scraper has seen /status stand still for five heartbeat
     periods and creates [releasefile]. The live [nodes] (the locality
     rows' sum) is flushed per advance chunk and [progress.nodes] per
     node, so they differ by less than a chunk per worker. A hold gives
     up after 20 s, so a failed scraper fails the test instead of
     hanging it. *)
  let portfile = Filename.temp_file "yewpar_monitor" ".port" in
  let outfile = Filename.temp_file "yewpar_monitor" ".out" in
  let releasefile = Filename.temp_file "yewpar_monitor" ".release" in
  Sys.remove portfile;
  Sys.remove releasefile;
  let target = 20 * Worker.chunk and workers = 2 and heartbeat = 0.02 in
  let held_problem =
    let base = queens_n 13 in
    let calls = Atomic.make 0 and released = Atomic.make false in
    let hold () =
      let give_up = Unix.gettimeofday () +. 20. in
      while
        not (Sys.file_exists releasefile || Unix.gettimeofday () > give_up)
      do
        Unix.sleepf 0.002
      done;
      Atomic.set released true
    in
    let children space n =
      if (not (Atomic.get released)) && Atomic.fetch_and_add calls 1 >= target
      then hold ();
      base.Problem.children space n
    in
    { base with Problem.children }
  in
  let locality_nodes j =
    match Analyze.member "locality" j with
    | Some (Analyze.Arr rows) ->
      List.fold_left
        (fun a row -> a +. Analyze.num_or 0. (Analyze.member "nodes" row))
        0. rows
    | _ -> -1.
  and progress_nodes j =
    Analyze.num_or (-1.)
      (Option.bind (Analyze.member "progress" j) (Analyze.member "nodes"))
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let deadline = Unix.gettimeofday () +. 60. in
        let rec wait_port () =
          if Sys.file_exists portfile then begin
            let ic = open_in portfile in
            let p = int_of_string (String.trim (input_line ic)) in
            close_in ic;
            p
          end
          else if Unix.gettimeofday () > deadline then failwith "no port"
          else begin
            ignore (Unix.select [] [] [] 0.01);
            wait_port ()
          end
        in
        let port = wait_port () in
        let _, metrics = Http_export.request ~timeout:10. ~port "/metrics" in
        let _, status = Http_export.request ~timeout:10. ~port "/status" in
        let oc = open_out outfile in
        output_string oc metrics;
        output_string oc "\n--8<--\n";
        output_string oc status;
        output_string oc "\n--8<--\n";
        let rec still since last =
          if Unix.gettimeofday () > deadline then failwith "never still";
          let _, body = Http_export.request ~timeout:10. ~port "/status" in
          let j = Analyze.parse_json body in
          let key = (locality_nodes j, progress_nodes j) in
          let now = Unix.gettimeofday () in
          if snd key < float_of_int (target / 2) || Some key <> last then begin
            Unix.sleepf 0.005;
            still now (Some key)
          end
          else if now -. since >= 5. *. heartbeat then body
          else begin
            Unix.sleepf 0.005;
            still since last
          end
        in
        output_string oc (still (Unix.gettimeofday ()) None);
        output_string oc "\n--8<--\n";
        close_out (open_out releasefile);
        (* "uptime rate" per later scrape, until the server stops: a
           refused connection, or status 0 (no reply line) from a
           connection closed as the server shuts down. Any other
           status but 200 fails the scraper. *)
        let rec poll () =
          match Http_export.request ~timeout:1. ~port "/status" with
          | _ when Unix.gettimeofday () >= deadline -> ()
          | 200, body ->
            let j = Analyze.parse_json body in
            let num k j = Analyze.num_or (-1.) (Option.bind j (Analyze.member k)) in
            Printf.fprintf oc "%.6f %.6g\n"
              (num "uptime" (Some j))
              (num "rate" (Analyze.member "progress" j));
            Unix.sleepf 0.005;
            poll ()
          | 0, _ -> ()
          | code, _ -> failwith (Printf.sprintf "/status answered %d" code)
          | exception _ -> ()
        in
        poll ();
        close_out oc;
        0
      with _ -> 1
    in
    Unix._exit code
  | scraper ->
    let publish port =
      (* Write-then-rename so the scraper never reads a partial file. *)
      let tmp = portfile ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc (string_of_int port);
      close_out oc;
      Sys.rename tmp portfile
    in
    let stats = Stats.create () in
    let t0 = Unix.gettimeofday () in
    let r =
      Dist.run ~stats ~watchdog:120. ~monitor_port:0 ~heartbeat
        ~on_monitor:publish ~localities:2 ~workers
        ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
        held_problem
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let _, status = Unix.waitpid [] scraper in
    Alcotest.(check bool) "scraper exited cleanly" true
      (status = Unix.WEXITED 0);
    Alcotest.(check int) "search result unaffected by monitoring" 73712 r;
    let ic = open_in_bin outfile in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove outfile;
    (try Sys.remove portfile with Sys_error _ -> ());
    (try Sys.remove releasefile with Sys_error _ -> ());
    let metrics, status, held, rates =
      match Str.bounded_split (Str.regexp_string "\n--8<--\n") body 4 with
      | [ m; s; h; r ] -> (m, Analyze.parse_json s, Analyze.parse_json h, r)
      | [ m; s; h ] -> (m, Analyze.parse_json s, Analyze.parse_json h, "")
      | _ -> Alcotest.fail "scraper output has no separator"
    in
    let nodes = locality_nodes held and progress = progress_nodes held in
    let what =
      Printf.sprintf "held: nodes %.0f, progress.nodes %.0f" nodes progress
    in
    Alcotest.(check bool) (what ^ ", mid-run") true
      (progress >= float_of_int (target / 2)
      && progress < float_of_int stats.Stats.nodes);
    Alcotest.(check bool) (what ^ ", within a chunk per worker") true
      (Float.abs (progress -. nodes) < float_of_int (2 * workers * Worker.chunk));
    (* The rate is taken on the coordinator's clock: once the smoothed
       rate has caught up with the hold, in the second half of the run
       after the release, each scrape's rate is within 2x of that part's
       overall rate (the held scrape's [uptime] is the release; the
       nodes before it are counted too, so the overall one reads a
       little high). *)
    let released = Analyze.num_or 0. (Analyze.member "uptime" held) in
    let final = float_of_int stats.Stats.nodes /. (elapsed -. released) in
    let mid =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ u; r ] ->
            let u = float_of_string u and r = float_of_string r in
            if u >= released +. ((elapsed -. released) /. 2.) && r > 0. then
              Some (u, r)
            else None
          | _ -> None)
        (String.split_on_char '\n' rates)
    in
    Alcotest.(check bool) "mid-run rates scraped" true (mid <> []);
    List.iter
      (fun (u, r) ->
        Alcotest.(check bool)
          (Printf.sprintf "rate %.3g at %.3fs within 2x of the run's %.3g" r u
             final)
          true
          (r <= 2. *. final && r >= final /. 2.))
      mid;
    Alcotest.(check bool) "metrics expose live gauges" true
      (contains metrics "yewpar_live_localities");
    Alcotest.(check string) "status names the runtime" "dist"
      (Analyze.str_or "" (Analyze.member "runtime" status));
    Alcotest.(check (float 0.)) "status is versioned" 1.
      (Analyze.num_or 0. (Analyze.member "schema_version" status));
    (* One field list: every live gauge is a /status key (the
       [localities] gauge counts connected localities, the key of that
       name is the fleet size, [alive] the connected count). *)
    let has k = Analyze.member k status <> None in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; _ ] when String.starts_with ~prefix:"yewpar_live_" name ->
          let k = String.sub name 12 (String.length name - 12) in
          if k <> "uptime_seconds" then
            Alcotest.(check bool) ("status has gauge " ^ k) true (has k)
        | _ -> ())
      (String.split_on_char '\n' metrics);
    List.iter
      (fun k -> Alcotest.(check bool) ("status has " ^ k) true (has k))
      [ "schema_version"; "runtime"; "uptime"; "localities"; "alive";
        "active_tasks"; "dist_pool_depth"; "outstanding_leases";
        "localities_lost"; "leases_reissued"; "respawns"; "global_best";
        "bound_broadcasts"; "heartbeats"; "locality"; "progress" ];
    Alcotest.(check (float 0.)) "localities is the fleet size" 2.
      (Analyze.num_or 0. (Analyze.member "localities" status))

let () =
  Alcotest.run "dist"
    [
      ( "wire",
        [
          Alcotest.test_case "heartbeat roundtrip" `Quick heartbeat_roundtrip;
          Alcotest.test_case "bytewise roundtrip" `Quick roundtrip_bytewise;
          Alcotest.test_case "chunked stream" `Quick concatenated_stream;
          Alcotest.test_case "corrupt length" `Quick corrupt_length_rejected;
        ] );
      ( "transport",
        [
          Alcotest.test_case "roundtrip + EOF" `Quick transport_roundtrip;
          Alcotest.test_case "recv timeout" `Quick transport_recv_timeout;
          Alcotest.test_case "mid-frame close" `Quick transport_midframe_close;
          Alcotest.test_case "truncated prefix" `Quick transport_truncated_prefix;
          Alcotest.test_case "send timeout" `Quick transport_send_timeout;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec parsing" `Quick chaos_parse_spec;
          Alcotest.test_case "shutdown immune" `Quick chaos_never_drops_shutdown;
        ] );
      ( "delta folding",
        [ QCheck_alcotest.to_alcotest delta_folding_order_free ] );
      ( "agreement",
        [
          Alcotest.test_case "queens" `Quick queens_matches;
          Alcotest.test_case "maxclique" `Quick maxclique_matches;
          Alcotest.test_case "knapsack" `Quick knapsack_matches;
          Alcotest.test_case "decision" `Quick decision_matches;
          Alcotest.test_case "depth profile invariants" `Quick
            depth_profile_invariants;
          Alcotest.test_case "a lone locality takes one lease" `Quick
            lone_locality_one_lease;
          Alcotest.test_case "the demand path reaches every locality" `Quick
            demand_path_spreads_leases;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "1x1 topology" `Quick single_locality_single_worker;
          Alcotest.test_case "invalid arguments" `Quick invalid_arguments;
          Alcotest.test_case "exception safety" `Quick generator_exceptions_propagate;
          Alcotest.test_case "children reaped" `Quick children_reaped;
          Alcotest.test_case "orphan self-reaps" `Quick orphan_self_reaps;
          Alcotest.test_case "final Report frame" `Quick final_report_frame;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "clean counters without chaos" `Quick
            no_chaos_clean_counters;
          Alcotest.test_case "crash mid-enumeration" `Quick chaos_kill_enumerate;
          Alcotest.test_case "crash mid-optimisation" `Quick chaos_kill_optimise;
          Alcotest.test_case "crash mid-decision" `Quick chaos_kill_decide;
          Alcotest.test_case "standby respawn" `Quick chaos_respawn;
          Alcotest.test_case "frame loss needs a lease timeout" `Quick
            chaos_drop_needs_lease_timeout;
          Alcotest.test_case "frame loss + lease timeout" `Quick chaos_drop_frames;
          Alcotest.test_case "journal causality across a crash" `Quick
            chaos_journal_causality;
        ] );
      ( "progress",
        [
          Alcotest.test_case "exact at quiescence" `Quick
            progress_exact_at_quiescence;
          Alcotest.test_case "final clamp across revoke-and-replay" `Quick
            progress_final_across_replay;
        ] );
      (* Last but one: this test starts an HTTP-server domain inside the
         test process, and no fork may happen after a domain has
         existed. *)
      ( "monitor",
        [ Alcotest.test_case "mid-run scrape" `Quick monitor_scrape_midrun ] );
      (* The sequential passthrough runs in this process, on the
         calling domain; it spawns no domain and forks nothing. *)
      ( "in-process",
        [ Alcotest.test_case "sequential delegates" `Quick sequential_delegates ] );
    ]
