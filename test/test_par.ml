module Shm = Yewpar_par.Shm
module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen
module Knapsack = Yewpar_knapsack.Knapsack
module Uts = Yewpar_uts.Uts
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Http_export = Yewpar_telemetry.Http_export
module Analyze = Yewpar_telemetry.Analyze
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Recorder = Yewpar_telemetry.Recorder
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Worker = Yewpar_runtime.Worker

type tree = T of int * tree list

let rec mk_tree depth breadth v =
  T (v, if depth = 0 then [] else List.init breadth (fun i -> mk_tree (depth - 1) breadth ((v * breadth) + i + 1)))

let count_problem t =
  Problem.count_nodes ~name:"count" ~space:() ~root:t
    ~children:(fun () (T (_, cs)) -> List.to_seq cs)
    ()

let rec tree_size (T (_, cs)) = 1 + List.fold_left (fun a c -> a + tree_size c) 0 cs

let coords =
  [
    ("depth2", Coordination.Depth_bounded { dcutoff = 2 });
    ("stack", Coordination.Stack_stealing { chunked = false });
    ("stack-chunked", Coordination.Stack_stealing { chunked = true });
    ("budget50", Coordination.Budget { budget = 50 });
    ("bestfirst2", Coordination.Best_first { dcutoff = 2 });
    ("randomspawn16", Coordination.Random_spawn { mean_interval = 16 });
  ]

let enumeration_matches () =
  let t = mk_tree 7 3 1 in
  let expected = tree_size t in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:4 ~coordination (count_problem t) in
      Alcotest.(check int) (Printf.sprintf "count (%s)" name) expected r)
    coords

let optimisation_matches () =
  let g = Gen.uniform ~seed:41 35 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  List.iter
    (fun (name, coordination) ->
      let node = Shm.run ~workers:4 ~coordination (Mc.max_clique g) in
      Alcotest.(check int) (Printf.sprintf "maxclique (%s)" name) expected node.Mc.size)
    coords

let decision_matches () =
  let g = Gen.hidden_clique ~seed:42 36 0.3 7 in
  List.iter
    (fun (name, coordination) ->
      (match Shm.run ~workers:4 ~coordination (Mc.k_clique g ~k:7) with
      | Some node ->
        Alcotest.(check bool)
          (Printf.sprintf "witness valid (%s)" name)
          true
          (Yewpar_graph.Graph.is_clique g (Mc.vertices_of node))
      | None -> Alcotest.fail (Printf.sprintf "7-clique not found (%s)" name));
      match Shm.run ~workers:4 ~coordination (Mc.k_clique g ~k:25) with
      | Some _ -> Alcotest.fail "no 25-clique exists"
      | None -> ())
    coords

let knapsack_matches () =
  let inst = Knapsack.Generate.weakly_correlated ~seed:43 ~n:18 ~max_value:100 in
  let expected = Knapsack.exact_dp inst in
  List.iter
    (fun (name, coordination) ->
      let node = Shm.run ~workers:3 ~coordination (Knapsack.problem inst) in
      Alcotest.(check int) (Printf.sprintf "knapsack (%s)" name) expected
        node.Knapsack.profit)
    coords

let uts_matches () =
  let params = { Uts.b0 = 30; q = 0.2; m = 4; max_depth = 100; seed = 6 } in
  let p = Uts.count_problem params in
  let expected = Sequential.search p in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:4 ~coordination p in
      Alcotest.(check int) (Printf.sprintf "uts (%s)" name) expected r)
    coords

let sequential_delegates () =
  let t = mk_tree 4 3 1 in
  let r = Shm.run ~coordination:Coordination.Sequential (count_problem t) in
  Alcotest.(check int) "sequential passthrough" (tree_size t) r

let single_worker () =
  let t = mk_tree 5 3 1 in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:1 ~coordination (count_problem t) in
      Alcotest.(check int) (Printf.sprintf "one worker (%s)" name) (tree_size t) r)
    coords

let invalid_workers () =
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Shm.run: workers must be >= 1") (fun () ->
      ignore
        (Shm.run ~workers:0 ~coordination:(Coordination.Budget { budget = 1 })
           (count_problem (mk_tree 2 2 1))))

exception Generator_failure

let generator_exceptions_propagate () =
  (* A generator that raises part-way through the tree must surface the
     exception instead of deadlocking the pool. *)
  let visits = Atomic.make 0 in
  let exploding =
    Problem.count_nodes ~name:"exploding" ~space:() ~root:(T (1, []))
      ~children:(fun () _ ->
        if Atomic.fetch_and_add visits 1 > 40 then raise Generator_failure
        else Seq.init 3 (fun i -> T (i, [])))
      ()
  in
  List.iter
    (fun (name, coordination) ->
      Atomic.set visits 0;
      match Shm.run ~workers:3 ~coordination exploding with
      | exception Generator_failure -> ()
      | exception e ->
        Alcotest.fail (Printf.sprintf "unexpected exception (%s): %s" name
                         (Printexc.to_string e))
      | _ -> Alcotest.fail (Printf.sprintf "expected the failure to surface (%s)" name))
    coords

let stats_aggregated () =
  let t = mk_tree 6 3 1 in
  let stats = Yewpar_core.Stats.create () in
  let r =
    Shm.run ~workers:3 ~stats ~coordination:(Coordination.Budget { budget = 10 })
      (count_problem t)
  in
  Alcotest.(check int) "result" (tree_size t) r;
  Alcotest.(check int) "every node processed once" (tree_size t)
    stats.Yewpar_core.Stats.nodes;
  Alcotest.(check bool) "tasks counted" true (stats.Yewpar_core.Stats.tasks >= 1);
  Alcotest.(check bool) "max depth sensible" true
    (stats.Yewpar_core.Stats.max_depth <= 6)

let depth_profile_invariants () =
  (* Column sums of the merged per-depth profile must equal the scalar
     counters of the same run — every node, prune, spawn and applied
     incumbent improvement falls into exactly one depth bucket. *)
  let g = Gen.uniform ~seed:41 35 0.6 in
  List.iter
    (fun (name, coordination) ->
      let stats = Stats.create () in
      ignore (Shm.run ~workers:4 ~stats ~coordination (Mc.max_clique g));
      let nodes, pruned, spawned, bounds =
        Depth_profile.totals stats.Stats.depths
      in
      Alcotest.(check int) (Printf.sprintf "nodes column (%s)" name)
        stats.Stats.nodes nodes;
      Alcotest.(check int) (Printf.sprintf "pruned column (%s)" name)
        stats.Stats.pruned pruned;
      Alcotest.(check int) (Printf.sprintf "spawned column (%s)" name)
        stats.Stats.tasks spawned;
      Alcotest.(check int) (Printf.sprintf "bounds column (%s)" name)
        stats.Stats.bound_updates bounds;
      Alcotest.(check bool) (Printf.sprintf "profile populated (%s)" name)
        false
        (Depth_profile.is_empty stats.Stats.depths))
    coords;
  (* Pure enumeration: no pruning, no incumbent — the nodes column
     alone carries the whole tree. *)
  let stats = Stats.create () in
  ignore
    (Shm.run ~workers:2 ~stats
       ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
       (count_problem (mk_tree 5 3 1)));
  let nodes, _, _, _ = Depth_profile.totals stats.Stats.depths in
  Alcotest.(check int) "enumeration nodes column" stats.Stats.nodes nodes

let bounds_by_depth () =
  (* Each applied improvement is booked at the depth of the node that
     made it. With one worker nothing is shed, so both coordinations
     visit the tree in the same order and improve at the same nodes:
     the root (1) at depth 0, then 3 and 4 at depths 2 and 3, then 5
     at depth 1 and 6 at depth 2. *)
  let leaf v = T (v, []) in
  let t =
    T (1, [ T (0, [ T (3, [ leaf 4 ]) ]); T (5, [ leaf 2; leaf 6 ]); leaf 0 ])
  in
  let p =
    Problem.maximise ~name:"bounds" ~space:() ~root:t
      ~children:(fun () (T (_, cs)) -> List.to_seq cs)
      ~objective:(fun (T (v, _)) -> v) ()
  in
  List.iter
    (fun (name, coordination) ->
      let stats = Stats.create () in
      let (T (best, _)) = Shm.run ~workers:1 ~stats ~coordination p in
      Alcotest.(check int) (Printf.sprintf "optimum (%s)" name) 6 best;
      Alcotest.(check (list int))
        (Printf.sprintf "bounds by depth (%s)" name)
        [ 1; 1; 2; 1 ]
        (List.init (Depth_profile.depths stats.Stats.depths) (fun d ->
             let _, _, _, bounds = Depth_profile.row stats.Stats.depths d in
             bounds)))
    [ ("seq", Coordination.Sequential);
      ("stack", Coordination.Stack_stealing { chunked = false }) ]

let contains haystack needle =
  let re = Str.regexp_string needle in
  match Str.search_forward re haystack 0 with
  | _ -> true
  | exception Not_found -> false

(* The [(name, value)] samples of a Prometheus text body whose name
   starts with [prefix], the prefix stripped. *)
let gauges ~prefix body =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.starts_with ~prefix name ->
        let n = String.length prefix in
        Some (String.sub name n (String.length name - n), float_of_string v)
      | _ -> None)
    (String.split_on_char '\n' body)

(* A mid-run /status taken with every worker held still: the worker
   whose generator call is the [target]-th scrapes, and any later call
   waits until it has. The live [nodes] is flushed at each advance
   chunk and [progress.nodes] is written per node, so they differ by
   less than a chunk per worker. Under [Sequential] the one task is
   still running at the scrape, so [nodes] would read 1 if the engine's
   count reached the counters only when a task ended. A failed scrape
   still releases the waiting workers. *)
let live_nodes_midrun ~workers coordination =
  let port = ref 0 and calls = Atomic.make 0 and status = ref "" in
  let m = Mutex.create () and scraped = Condition.create () in
  let target = 20 * Worker.chunk in
  let children () d =
    let k = 1 + Atomic.fetch_and_add calls 1 in
    if k = target then begin
      let body =
        try snd (Http_export.request ~timeout:10. ~port:!port "/status")
        with e -> "scrape failed: " ^ Printexc.to_string e
      in
      Mutex.lock m;
      status := body;
      Condition.broadcast scraped;
      Mutex.unlock m
    end
    else if k > target then begin
      Mutex.lock m;
      while !status = "" do
        Condition.wait scraped m
      done;
      Mutex.unlock m
    end;
    if d = 0 then Seq.empty else Seq.init 4 (fun _ -> d - 1)
  in
  let p = Problem.count_nodes ~name:"live" ~space:() ~root:9 ~children () in
  let n =
    Shm.run ~workers ~monitor_port:0 ~on_monitor:(fun q -> port := q)
      ~coordination p
  in
  Alcotest.(check int) "live run counts every node" 349525 n;
  let json = Analyze.parse_json !status in
  let nodes = Analyze.num_or (-1.) (Analyze.member "nodes" json)
  and progress =
    Analyze.num_or (-1.)
      (Option.bind (Analyze.member "progress" json) (Analyze.member "nodes"))
  in
  let what =
    Printf.sprintf "%d worker(s): nodes %.0f, progress.nodes %.0f" workers
      nodes progress
  in
  Alcotest.(check bool) (what ^ ", mid-run") true
    (progress >= float_of_int (target / 2) && progress < float_of_int n);
  Alcotest.(check bool) (what ^ ", within a chunk per worker") true
    (Float.abs (progress -. nodes) < float_of_int (workers * Worker.chunk))

let monitor_scrape_midrun () =
  (* The monitor server is live before the worker domains spawn, so
     scraping from inside [on_monitor] is a deterministic mid-run
     scrape: the run cannot finish before the callback returns, and
     no counter moves between the two scrapes. *)
  let scraped = ref None in
  let on_monitor port =
    let metrics = Http_export.get ~timeout:10. ~port "/metrics" in
    let _, prom = Http_export.request ~timeout:10. ~port "/metrics" in
    let _, status = Http_export.request ~timeout:10. ~port "/status" in
    let missing = Http_export.get ~timeout:10. ~port "/nope" in
    scraped := Some (metrics, prom, status, missing)
  in
  let g = Gen.uniform ~seed:41 35 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  let node =
    Shm.run ~workers:4 ~monitor_port:0 ~on_monitor
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      (Mc.max_clique g)
  in
  Alcotest.(check int) "search result unaffected by monitoring" expected
    node.Mc.size;
  match !scraped with
  | None -> Alcotest.fail "on_monitor never fired"
  | Some (metrics, prom, status, missing) ->
    Alcotest.(check bool) "metrics are prometheus text" true
      (contains metrics "text/plain");
    Alcotest.(check bool) "unknown path is a 404" true
      (contains missing "404");
    let json = Analyze.parse_json status in
    let same what key v j =
      match j with
      | Some (Analyze.Num x) ->
        Alcotest.(check (float 1e-9)) (what ^ " " ^ key) v x
      | _ ->
        Alcotest.fail (Printf.sprintf "%s %s missing from /status" what key)
    in
    Alcotest.(check string) "status names the runtime" "shm"
      (Analyze.str_or "" (Analyze.member "runtime" json));
    Alcotest.(check (float 0.)) "status is versioned" 1.
      (Analyze.num_or 0. (Analyze.member "schema_version" json));
    (* One field list: every live gauge is the /status key of its short
       name, and every progress gauge a field of the progress block. *)
    let live = gauges ~prefix:"yewpar_live_" prom in
    Alcotest.(check bool) "metrics expose live gauges" true
      (List.mem_assoc "workers" live);
    List.iter
      (fun (k, v) ->
        if k <> "uptime_seconds" then
          same "live gauge" k v (Analyze.member k json))
      live;
    let progress = Analyze.member "progress" json in
    let progress_gauges = gauges ~prefix:"yewpar_progress_" prom in
    Alcotest.(check bool) "metrics expose progress gauges" true
      (progress_gauges <> []);
    List.iter
      (fun (k, v) ->
        same "progress gauge" k v (Option.bind progress (Analyze.member k)))
      progress_gauges;
    List.iter
      (fun k ->
        Alcotest.(check bool) ("status has " ^ k) true
          (Analyze.member k json <> None))
      [ "schema_version"; "runtime"; "uptime"; "workers"; "nodes"; "pruned";
        "tasks"; "tasks_done"; "pool_depth"; "active_tasks"; "idle_workers";
        "steals"; "steal_attempts"; "bound_updates"; "best"; "trace_dropped";
        "progress" ];
    live_nodes_midrun ~workers:1 Coordination.Sequential;
    live_nodes_midrun ~workers:2 (Coordination.Stack_stealing { chunked = false })

let repeated_runs_stable () =
  (* Results (not witnesses) must be stable across repeated parallel
     runs despite scheduling nondeterminism. *)
  let g = Gen.uniform ~seed:44 30 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  for _ = 1 to 5 do
    let node =
      Shm.run ~workers:4 ~coordination:(Coordination.Stack_stealing { chunked = false })
        (Mc.max_clique g)
    in
    Alcotest.(check int) "stable optimum" expected node.Mc.size
  done

(* ----------------------- the worker core by hand ----------------------- *)

(* One slot of the worker core driven directly, under a scheduler that
   only queues: spawned tasks go to a FIFO the driver drains in order,
   and the stack-stealing hunger probe answers yes on every fifth call.
   With no [steps], each task is one [exec_task]; otherwise it is a
   [start_task] followed by [advance] calls of [steps ()] steps each
   until the task ends. Returns the result, the folded counters and the
   summed units that [start_task] and [advance] reported. *)
let run_core (type s n r) ?steps coordination (p : (s, n, r) Problem.t) =
  let counters = Counters.create ~slots:1 () in
  let knowledge = Knowledge.make_atomic () in
  let harness = Ops.harness p.Problem.kind in
  let submit =
    Counters.accounted_submit counters ~slot:0 ~recorder:Recorder.null
      knowledge.Knowledge.submit
  in
  let views = [| harness.Ops.view { knowledge with Knowledge.submit } |] in
  let queue = Queue.create () and probes = ref 0 and stop = Atomic.make false in
  let ctx =
    Worker.make_step_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders:[| Recorder.null |] ~views
      ~enqueue:(fun ~slot:_ _ task -> Queue.push task queue)
      ~should_shed:(fun ~slot:_ ->
        incr probes;
        !probes mod 5 = 0)
      ~stop ()
  in
  Worker.spawn ctx ~slot:0 { Task_pool.tag = 0; node = p.Problem.root; depth = 0 };
  let units = ref 0 in
  while not (Atomic.get stop || Queue.is_empty queue) do
    let task = Queue.pop queue in
    match steps with
    | None -> Worker.exec_task ctx ~slot:0 task
    | Some steps ->
      units := !units + Worker.start_task ctx ~slot:0 task;
      while Worker.running ctx ~slot:0 do
        units := !units + Worker.advance ctx ~slot:0 ~steps:(steps ())
      done
  done;
  let stats = Stats.create () in
  Counters.fold_into counters stats;
  (harness.Ops.result knowledge, stats, !units)

let counts (st : Stats.t) =
  let d = st.Stats.depths in
  ( (st.Stats.nodes, st.Stats.pruned, st.Stats.backtracks, st.Stats.max_depth),
    (st.Stats.tasks, st.Stats.bound_updates),
    List.init (Depth_profile.depths d) (Depth_profile.row d),
    List.init (Depth_profile.progress_depths d) (Depth_profile.progress_row d) )

let all_coords =
  ("seq", Coordination.Sequential)
  :: ("ordered2", Coordination.Ordered { dcutoff = 2 })
  :: ("budget3", Coordination.Budget { budget = 3 })
  :: ("randomspawn4", Coordination.Random_spawn { mean_interval = 4 })
  :: coords

(* Stepping a task in batches of 1..5 steps is [exec_task]: the same
   result, counters and depth profile, and the same units as one
   unbounded [advance]. *)
let advance_batches_are_exec_task () =
  let rng = Random.State.make [| 24 |] in
  let check (type s n r) name (p : (s, n, r) Problem.t) =
    List.iter
      (fun (cname, coordination) ->
        let label what = Printf.sprintf "%s %s (%s)" name what cname in
        let r, st, _ = run_core coordination p in
        let _, _, whole = run_core ~steps:(fun () -> max_int) coordination p in
        let r', st', units =
          run_core ~steps:(fun () -> 1 + Random.State.int rng 5) coordination p
        in
        Alcotest.(check bool) (label "result") true (r = r');
        Alcotest.(check bool) (label "counters and profile") true
          (counts st = counts st');
        Alcotest.(check int) (label "units") whole units;
        Alcotest.(check bool) (label "did work") true (st.Stats.nodes > 1))
      all_coords
  in
  check "count" (count_problem (mk_tree 5 3 1));
  check "maxclique" (Mc.max_clique (Gen.uniform ~seed:41 30 0.6));
  check "knapsack"
    (Knapsack.problem
       (Knapsack.Generate.weakly_correlated ~seed:43 ~n:14 ~max_value:100));
  check "kclique" (Mc.k_clique (Gen.hidden_clique ~seed:42 36 0.3 7) ~k:7)

(* Each [advance] call flushes the nodes and prunes it took; the
   simulator ends the tasks still running after a short-circuited
   search with [advance ~steps:0]: with [stop] raised that takes no
   step, but ends the task and flushes its backtracks and depth. *)
let advance_zero_after_stop_finalises () =
  let counters = Counters.create ~slots:1 () in
  let knowledge = Knowledge.make_atomic () in
  let p = count_problem (mk_tree 4 3 1) in
  let harness = Ops.harness p.Problem.kind in
  let stop = Atomic.make false in
  let ctx =
    Worker.make_step_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination:Coordination.Sequential ~counters
      ~recorders:[| Recorder.null |] ~views:[| harness.Ops.view knowledge |]
      ~enqueue:(fun ~slot:_ _ _ -> Alcotest.fail "nothing spawns")
      ~should_shed:(fun ~slot:_ -> false)
      ~stop ()
  in
  let task = { Task_pool.tag = 0; node = p.Problem.root; depth = 0 } in
  Alcotest.(check int) "root processed" 1 (Worker.start_task ctx ~slot:0 task);
  (* Ten steps into a ternary tree of depth 4: down its leftmost
     branch to a leaf, across two sibling leaves and back up one level,
     so six entered nodes (the units) and four backtracks. *)
  let units = Worker.advance ctx ~slot:0 ~steps:10 in
  Alcotest.(check int) "six nodes entered" 6 units;
  Alcotest.(check bool) "still running" true (Worker.running ctx ~slot:0);
  Alcotest.(check int) "entered nodes flushed at the call's end" 7
    counters.(0).Counters.stats.Stats.nodes;
  Alcotest.(check int) "backtracks not yet flushed" 0
    counters.(0).Counters.stats.Stats.backtracks;
  Atomic.set stop true;
  Alcotest.(check int) "no step taken" 0 (Worker.advance ctx ~slot:0 ~steps:0);
  Alcotest.(check bool) "task ended" false (Worker.running ctx ~slot:0);
  let st = Stats.create () in
  Counters.fold_into counters st;
  Alcotest.(check int) "root and entered nodes flushed" 7 st.Stats.nodes;
  Alcotest.(check int) "backtracks flushed" 4 st.Stats.backtracks;
  Alcotest.(check int) "depth flushed" 4 st.Stats.max_depth;
  Alcotest.(check int) "profile agrees" st.Stats.nodes
    (let n, _, _, _ = Depth_profile.totals st.Stats.depths in
     n)

(* Each slot's counters are written by one thread only. The main
   domain books slot 0's root spawn; then each of four domains claims
   its slot and records a known mix of events through the entry points
   the worker core uses, slot [i] at depth [i] and [k = i + 1] times
   over. The bound wrappers are built in the main domain before any
   claim, as the runtimes build them, so a wrapper that held on to its
   slot's first record would book into a record no fold reads. *)
let counters_across_domains () =
  let n = 4 in
  let counters = Counters.create ~slots:n () in
  Counters.note_spawn counters ~slot:0 0;
  let built = Array.copy counters in
  let submits =
    Array.init n (fun slot ->
        Counters.accounted_submit counters ~slot ~recorder:Recorder.null
          (fun () _ -> true))
  in
  let record slot () =
    Counters.claim counters ~slot;
    let c = counters.(slot) in
    let fresh = c != built.(slot) and kept = c.Counters.stats.Stats.tasks in
    let st = c.Counters.stats and k = slot + 1 in
    for _ = 1 to 100 * k do
      st.Stats.nodes <- st.Stats.nodes + 1;
      Depth_profile.note_node st.Stats.depths slot
    done;
    for _ = 1 to 10 * k do
      st.Stats.pruned <- st.Stats.pruned + 1;
      Depth_profile.note_prune st.Stats.depths slot
    done;
    for _ = 1 to 3 * k do
      Counters.note_spawn counters ~slot slot
    done;
    for _ = 1 to 2 * k do
      ignore (submits.(slot) () 0 : bool)
    done;
    st.Stats.steal_attempts <- st.Stats.steal_attempts + (5 * k);
    st.Stats.steals <- st.Stats.steals + k;
    (fresh, kept)
  in
  let domains = Array.init n (fun slot -> Domain.spawn (record slot)) in
  let claims = Array.map Domain.join domains in
  Array.iteri
    (fun slot (fresh, kept) ->
      let label what = Printf.sprintf "slot %d: %s" slot what in
      Alcotest.(check bool) (label "claimed record is fresh") true fresh;
      Alcotest.(check int) (label "claim keeps the root spawn")
        (if slot = 0 then 1 else 0)
        kept)
    claims;
  let sum f = List.fold_left ( + ) 0 (List.init n (fun i -> f (i + 1))) in
  let st = Stats.create () in
  Counters.fold_into counters st;
  Alcotest.(check int) "nodes" (sum (fun k -> 100 * k)) st.Stats.nodes;
  Alcotest.(check int) "pruned" (sum (fun k -> 10 * k)) st.Stats.pruned;
  Alcotest.(check int) "tasks" (1 + sum (fun k -> 3 * k)) st.Stats.tasks;
  Alcotest.(check int) "bound updates" (sum (fun k -> 2 * k))
    st.Stats.bound_updates;
  Alcotest.(check int) "steal attempts" (sum (fun k -> 5 * k))
    st.Stats.steal_attempts;
  Alcotest.(check int) "steals" (sum (fun k -> k)) st.Stats.steals;
  Alcotest.(check int) "live sum = fold" st.Stats.nodes
    (Counters.total counters (fun s -> s.Stats.nodes));
  let d = st.Stats.depths in
  Alcotest.(check (list (list int))) "profile rows"
    (List.init n (fun i ->
         let k = i + 1 in
         [ 100 * k; 10 * k; (3 * k) + (if i = 0 then 1 else 0); 2 * k ]))
    (List.init (Depth_profile.depths d) (fun i ->
         let a, b, c, e = Depth_profile.row d i in
         [ a; b; c; e ]));
  let nodes, pruned, spawned, bounds = Depth_profile.totals d in
  Alcotest.(check (list int)) "profile totals = scalars"
    [ st.Stats.nodes; st.Stats.pruned; st.Stats.tasks; st.Stats.bound_updates ]
    [ nodes; pruned; spawned; bounds ]

let () =
  Alcotest.run "par"
    [
      ( "agreement",
        [
          Alcotest.test_case "enumeration" `Quick enumeration_matches;
          Alcotest.test_case "optimisation" `Quick optimisation_matches;
          Alcotest.test_case "decision" `Quick decision_matches;
          Alcotest.test_case "knapsack" `Quick knapsack_matches;
          Alcotest.test_case "uts" `Quick uts_matches;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "sequential delegates" `Quick sequential_delegates;
          Alcotest.test_case "single worker" `Quick single_worker;
          Alcotest.test_case "invalid workers" `Quick invalid_workers;
          Alcotest.test_case "repeated runs" `Quick repeated_runs_stable;
          Alcotest.test_case "exception safety" `Quick generator_exceptions_propagate;
          Alcotest.test_case "stats aggregation" `Quick stats_aggregated;
          Alcotest.test_case "depth profile invariants" `Quick
            depth_profile_invariants;
          Alcotest.test_case "bounds by depth" `Quick bounds_by_depth;
        ] );
      ( "worker core",
        [
          Alcotest.test_case "advance batches = exec_task" `Quick
            advance_batches_are_exec_task;
          Alcotest.test_case "advance 0 after stop finalises" `Quick
            advance_zero_after_stop_finalises;
          Alcotest.test_case "counters across domains" `Quick
            counters_across_domains;
        ] );
      ( "monitor",
        [ Alcotest.test_case "mid-run scrape" `Quick monitor_scrape_midrun ] );
    ]
