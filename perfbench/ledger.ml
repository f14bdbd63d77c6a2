(* The per-layer ledger, from a traced run.

   Each layer's cost is the difference between neighbouring rungs of a
   chain where each rung adds one layer:

     1. the app generator ([children] forced on sampled nodes)
     2. [Mc.Specialised] (MaxClique inputs only; a reference)
     3. [Sequential.search]
     4. one [Worker.exec_task] of the root task, no-op scheduler
     5. [Shm.run] with 1 worker
     6. [Shm.run] with 2 workers
     7. a served job (the serve workload, see Serve)

   Every rung call is checked like an end-to-end call and recorded as
   a span. Rounds rotate the rung order so drift hits every rung
   alike, and each rung is summarised by per-input medians. Every
   timing here, direct ones included, is normalised to the reference
   speed (see Calls), so differences between rungs are taken in one
   unit. *)

module Problem = Yewpar_core.Problem
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Splitmix = Yewpar_util.Splitmix
module Recorder = Yewpar_telemetry.Recorder
module Telemetry = Yewpar_telemetry.Telemetry
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Worker = Yewpar_runtime.Worker

(* Every per-layer metric: unit, and the end-to-end metric (and
   workload) it should move. *)
let catalogue =
  let e = "enum-steal" and b = "bnb-spawn" and c = "clique" and s = "serve" in
  let on m w = Printf.sprintf "-> %s on %s" m w in
  let codec app =
    List.map
      (fun (f, u) ->
        (Printf.sprintf "codec.%s.%s" app f, u, on "job_latency_p50_s" s))
      [ ("encode_ns", "ns"); ("decode_ns", "ns"); ("bytes_per_node", "bytes") ]
  in
  let wire frame =
    List.map
      (fun (f, u) -> (Printf.sprintf "wire.%s.%s" frame f, u, on "jobs_per_s" s))
      [ ("encode_ns", "ns"); ("decode_ns", "ns"); ("bytes_per_frame", "bytes") ]
  in
  [ ("apps.ns_per_child", "ns", on "seq_nodes_per_s" c ^ "; little on " ^ e);
    ("apps.minor_words_per_child", "words", on "seq_nodes_per_s" c);
    ("apps.ns_per_call", "ns", on "seq_nodes_per_s" c);
    ("spec.ns_per_node", "ns", "reference: denominator of seq_overhead on " ^ c);
    ("seq.ns_per_node", "ns", on "seq_nodes_per_s" e);
    ("seq.minor_words_per_node", "words", on "seq_nodes_per_s" e);
    ("engine.self_ns_per_node", "ns", on "seq_nodes_per_s" e ^ "; ~0 on " ^ c);
    ("worker.self_ns_per_node", "ns", on "nodes_per_s" e);
    ("worker.minor_words_per_node", "words", on "nodes_per_s" e);
    ("shm1.self_ns_per_node", "ns", on "speedup" (e ^ " and " ^ b));
    ("shm2.ns_per_node", "ns", on "speedup" (e ^ " and " ^ b));
    ("shm2.efficiency", "ratio", on "speedup" (e ^ " and " ^ b));
    ("two_tier.tasks", "count", on "nodes_per_s" (b ^ " (spawn)"));
    ("two_tier.steal_attempts", "count", on "nodes_per_s" (e ^ " (steal)"));
    ("two_tier.steals", "count", on "nodes_per_s" (e ^ " (steal)"));
    ("two_tier.steal_success_ratio", "ratio", on "nodes_per_s" (e ^ " (steal)"));
    ("two_tier.tasks_per_s", "1/s", on "nodes_per_s" (b ^ "; none on " ^ c));
    ("two_tier.push_take_ns", "ns", on "nodes_per_s" (b ^ " (spawn)"));
    ("two_tier.steal_take_ns", "ns", on "nodes_per_s" (e ^ " (steal)"));
    ("progress.overhead", "ratio", on "nodes_per_s" e);
    ("telemetry.overhead", "ratio", on "nodes_per_s" e);
    ("trace.overhead", "ratio", "gap between traced and untraced calls");
    ("knowledge.bound_updates", "count", on "solve_s_p50" b);
    ("knowledge.prune_ratio", "ratio", on "solve_s_p50" b);
    ("knowledge.nodes_vs_seq", "ratio", on "solve_s_p50" b) ]
  @ codec "queens" @ codec "knapsack" @ codec "maxclique" @ wire "task"
  @ wire "steal_reply" @ wire "idle" @ wire "heartbeat"
  @ [ ("coordinator.run_s", "s", on "job_latency_p50_s" s);
      ("coordinator.tasks_per_job", "count", on "job_latency_p50_s" s);
      ("coordinator.steals_per_job", "count", on "job_latency_p50_s" s);
      ("coordinator.nodes_per_s", "1/s", on "job_latency_p50_s" s);
      ("server.queue_s", "s", on "job_latency_tail_s" s);
      ("server.post_ms", "ms", on "job_latency_tail_s" s);
      ("server.get_ms", "ms", on "job_latency_tail_s" s);
      ("server.front_s", "s", on "job_latency_tail_s" s);
      ("setup.instances_s", "s", on "setup_s" "every workload");
      ("setup.oracle_s", "s", on "setup_s" "every workload");
      ("setup.fleet_s", "s", on "setup_s" s);
      ("setup.warmup_s", "s", on "setup_s" "every workload") ]

let names = List.map (fun (n, _, _) -> n) catalogue

let add rep name value =
  match List.find_opt (fun (n, _, _) -> n = name) catalogue with
  | Some (_, u, why) -> Report.add rep ~why name u value
  | None -> invalid_arg ("Ledger.add: unknown metric " ^ name)

(* Layers the workload never exercises are reported as 0, so every
   traced run prints the whole catalogue. *)
let fill_missing rep =
  let missing = List.filter (fun n -> Report.find rep n = None) names in
  if missing <> [] then
    Report.note "not exercised on this workload (reported as 0): %s"
      (String.concat " " missing);
  List.iter
    (fun (n, u, _) -> if List.mem n missing then Report.add rep n u 0.)
    catalogue

(* ---- rung 1: the app generator ---- *)

(* Random root-to-leaf descents, keeping every node on each path: a
   fixed (seeded) sample across all depths of the tree. *)
let sample_nodes (type s n r) (p : (s, n, r) Problem.t) ~rng ~probes =
  let acc = ref [] in
  for _ = 1 to probes do
    let rec descend node depth =
      acc := node :: !acc;
      let kids = Array.of_seq (p.Problem.children p.Problem.space node) in
      if Array.length kids > 0 && depth < 256 then
        descend kids.(Splitmix.int rng (Array.length kids)) (depth + 1)
    in
    descend p.Problem.root 0
  done;
  !acc

(* Call [children] on every sampled node, [reps] times, forcing every
   child ([~all:true]) or only the first: normalised seconds, children
   produced, minor words. *)
let force_children (type s n r) (p : (s, n, r) Problem.t) nodes ~reps ~all =
  let count = ref 0 in
  let w0 = Calls.minor_words () in
  let (), secs, _ =
    Calls.normalised (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun nd ->
              let kids = p.Problem.children p.Problem.space nd in
              if all then Seq.iter (fun _ -> incr count) kids
              else match kids () with Seq.Cons _ -> incr count | Seq.Nil -> ())
            nodes
        done)
  in
  (secs, !count, Calls.minor_words () -. w0)

(* A generator's cost is a part paid per [children] call (MaxClique's
   colouring of the candidate set) and a part paid per child forced.
   The engine forces only a prefix of the children where a failed
   bound cuts the siblings, so forcing all of them says little on its
   own: timing every call both ways separates the two parts. Returns
   nanoseconds per call and per child. *)
let apps_layer rep spans ~seed inputs =
  let rng = Splitmix.of_seed seed in
  let calls, all_s, all_k, words, first_s, first_k =
    List.fold_left
      (fun (n, sa, ka, w, sf, kf) (Inputs.Input i) ->
        Spans.wrap spans ("apps " ^ i.label) (fun _ ->
            let nodes = sample_nodes i.problem ~rng ~probes:64 in
            (* Repeat until ~20 ms of generator work per input. *)
            let s1, _, _ = force_children i.problem nodes ~reps:1 ~all:true in
            let reps = max 1 (int_of_float (0.02 /. Float.max s1 1e-6)) in
            let s2, k2, w2 = force_children i.problem nodes ~reps ~all:true in
            let s3, k3, _ = force_children i.problem nodes ~reps ~all:false in
            (n + (reps * List.length nodes), sa +. s2, ka + k2, w +. w2, sf +. s3, kf + k3)))
      (0, 0., 0, 0., 0., 0) inputs
  in
  add rep "apps.ns_per_child" (Measure.ratio (all_s *. 1e9) (float_of_int all_k));
  add rep "apps.minor_words_per_child" (Measure.ratio words (float_of_int all_k));
  let per_child =
    Float.max 0. (Measure.ratio ((all_s -. first_s) *. 1e9) (float_of_int (all_k - first_k)))
  in
  let per_call =
    Float.max 0.
      (Measure.ratio ((first_s *. 1e9) -. (per_child *. float_of_int first_k)) (float_of_int calls))
  in
  add rep "apps.ns_per_call" per_call;
  (per_call, per_child)

(* ---- rung 4: the worker core alone ---- *)

(* One [Worker.exec_task] of the root task under stack-stealing with a
   scheduler that is never hungry, so nothing is spawned and the whole
   tree runs in this one task on the calling domain. *)
let exec_root (type s n r) (p : (s, n, r) Problem.t) (st : Stats.t) : r =
  let coordination = Coordination.Stack_stealing { chunked = false } in
  let counters = Counters.create ~slots:1 () in
  let recorders = [| Recorder.null |] in
  let knowledge = Knowledge.make_atomic () in
  let harness = Ops.harness p.Problem.kind in
  let submit =
    Counters.accounted_submit counters ~slot:0 ~recorder:Recorder.null
      knowledge.Knowledge.submit
  in
  let views = [| harness.Ops.view { knowledge with Knowledge.submit } |] in
  let scheduler =
    {
      Worker.enqueue = (fun ~slot:_ _ _ -> failwith "no-op scheduler: spawn");
      take = (fun ~slot:_ -> None);
      finish = ignore;
      should_shed = (fun () -> false);
      begin_task = (fun ~slot:_ _ -> ());
      end_task = (fun ~slot:_ -> ());
    }
  in
  let tiers =
    Two_tier.create ~policy:(Task_pool.policy_for coordination) ~slots:1 ()
  in
  let ctx =
    Worker.make_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders ~views ~scheduler ~tiers
      ~stop:(Atomic.make false) ()
  in
  Worker.exec_task ctx ~slot:0
    { Task_pool.tag = 0; node = p.Problem.root; depth = 0 };
  Counters.fold_into counters st;
  harness.Ops.result knowledge

(* ---- the scheduler's two tiers, called directly ---- *)

let two_tier_ns ~steal =
  let tiers = Two_tier.create ~policy:Yewpar_core.Workpool.Depth ~slots:2 () in
  let stop = Atomic.make false in
  let task = { Task_pool.tag = 0; node = (); depth = 1 } in
  Calls.ns_per_call (fun () ->
      Two_tier.enqueue tiers ~slot:0 ~recorder:Recorder.null ~priority:0 task;
      match
        Two_tier.take tiers ~slot:(if steal then 1 else 0)
          ~recorder:Recorder.null ~stop ()
      with
      | Some _ -> ()
      | None -> failwith "Two_tier.take returned no task")

(* ---- rungs 2-6 and the A/B pairs ---- *)

type rung =
  | Spec
  | Seq
  | Exec
  | Shm1  (** Traced: recorded as a span like every rung. *)
  | Shm1_bare  (** No span: the untraced side of trace.overhead. *)
  | Shm1_no_progress
  | Shm1_telemetry
  | Shm2

let rung_name = function
  | Spec -> "spec"
  | Seq -> "seq"
  | Exec -> "exec"
  | Shm1 -> "shm1"
  | Shm1_bare -> "shm1"
  | Shm1_no_progress -> "shm1-no-progress"
  | Shm1_telemetry -> "shm1-telemetry"
  | Shm2 -> "shm2"

let rungs_of input =
  let base =
    [ Seq; Exec; Shm1; Shm1_bare; Shm1_no_progress; Shm1_telemetry; Shm2 ]
  in
  if Inputs.app input = "maxclique" then Spec :: base else base

(* The span of a traced rung is recorded inside the call's timed
   interval, so [Shm1] against [Shm1_bare] times what recording a
   span adds to a call. *)
let run_rung rep spans ~coordination ~parent input rung =
  let around =
    if rung = Shm1_bare then Calls.bare
    else { Calls.around = (fun f -> Spans.wrap spans ~parent (rung_name rung) (fun _ -> f ())) }
  in
  (* Every rung starts from the same collected heap, so one rung's
     garbage (telemetry rings, say) is not billed to the next. *)
  Gc.full_major ();
  match rung with
  | Spec -> Calls.spec ~around rep input
  | Seq -> Calls.seq ~around rep input
  | Exec -> Calls.checked ~around rep "exec" input { Calls.run = exec_root }
  | Shm1 | Shm1_bare -> Calls.shm ~around rep ~workers:1 ~coordination input
  | Shm1_no_progress ->
    Calls.shm ~around rep ~workers:1 ~coordination ~progress:false input
  | Shm1_telemetry ->
    Calls.shm ~around rep ~workers:1 ~coordination ~telemetry:(Telemetry.create ())
      input
  | Shm2 -> Calls.shm ~around rep ~workers:2 ~coordination input

let search_layers rep spans ~coordination ~deadline inputs =
  let t_start = Calls.now () in
  let apps_call_ns, apps_child_ns = apps_layer rep spans ~seed:(Hashtbl.hash (List.map Inputs.label inputs)) inputs in
  add rep "two_tier.push_take_ns" (two_tier_ns ~steal:false);
  add rep "two_tier.steal_take_ns" (two_tier_ns ~steal:true);
  let tbl = Calls.Table.create () in
  (* At least two rounds, then as many as fit before the deadline. *)
  let round = ref 0 in
  let round_s = ref 0. in
  while !round < 2 || Calls.now () +. !round_s < deadline do
    let t0 = Calls.now () in
    Spans.wrap spans (Printf.sprintf "round %d" !round) (fun parent ->
        List.iteri
          (fun idx input ->
            let rungs = rungs_of input in
            let k = !round mod List.length rungs in
            let rotated =
              List.filteri (fun j _ -> j >= k) rungs
              @ List.filteri (fun j _ -> j < k) rungs
            in
            List.iter
              (fun r ->
                Option.iter (Calls.Table.add tbl (r, idx))
                  (run_rung rep spans ~coordination ~parent input r))
              rotated)
          inputs);
    round_s := Calls.now () -. t0;
    incr round
  done;
  Report.note "ledger: %d rounds over %d inputs in %.1fs" !round
    (List.length inputs) (Calls.now () -. t_start);
  let n = List.length inputs in
  let secs = Calls.secs and nodes = Calls.nodes in
  let total f r = Calls.Table.total tbl ~inputs:n f r in
  let over f g r = Calls.Table.sum_ratio tbl ~inputs:n (r, f) (r, g) in
  let ns_per_node r = 1e9 *. over secs nodes r in
  let words_per_node r = over Calls.words nodes r in
  (* Ratio of rung a's time to rung b's, on inputs having both. *)
  let time_ratio a b = Calls.Table.sum_ratio tbl ~inputs:n (a, secs) (b, secs) in
  if List.exists (fun i -> Inputs.app i = "maxclique") inputs then
    add rep "spec.ns_per_node" (ns_per_node Spec);
  let seq_ns = ns_per_node Seq in
  add rep "seq.ns_per_node" seq_ns;
  add rep "seq.minor_words_per_node" (words_per_node Seq);
  (* Children the generator produced per processed node: every node
     but the root was produced once, plus the children pruned on
     arrival. Each processed node calls [children] once. *)
  let produced_per_node =
    over
      (fun s -> nodes s -. 1. +. float_of_int s.Calls.stats.Stats.pruned)
      nodes Seq
  in
  add rep "engine.self_ns_per_node"
    (seq_ns -. apps_call_ns -. (apps_child_ns *. produced_per_node));
  let exec_ns = ns_per_node Exec in
  add rep "worker.self_ns_per_node" (exec_ns -. seq_ns);
  add rep "worker.minor_words_per_node" (words_per_node Exec);
  add rep "shm1.self_ns_per_node" (ns_per_node Shm1 -. exec_ns);
  add rep "shm2.ns_per_node" (ns_per_node Shm2);
  add rep "shm2.efficiency" (time_ratio Shm1 Shm2 /. 2.);
  let stat f (s : Calls.sample) = float_of_int (f s.Calls.stats) in
  let tasks = total (stat (fun st -> st.Stats.tasks)) Shm2 in
  let attempts = total (stat (fun st -> st.Stats.steal_attempts)) Shm2 in
  let steals = total (stat (fun st -> st.Stats.steals)) Shm2 in
  add rep "two_tier.tasks" tasks;
  add rep "two_tier.steal_attempts" attempts;
  add rep "two_tier.steals" steals;
  add rep "two_tier.steal_success_ratio" (Measure.ratio steals attempts);
  add rep "two_tier.tasks_per_s" (Measure.ratio tasks (total secs Shm2));
  add rep "progress.overhead" (time_ratio Shm1_bare Shm1_no_progress -. 1.);
  add rep "telemetry.overhead" (time_ratio Shm1_telemetry Shm1_bare -. 1.);
  add rep "trace.overhead" (time_ratio Shm1 Shm1_bare -. 1.);
  (* The same cost read directly: one span recorded per traced rung
     call, against the median traced call. *)
  let span_ns =
    Measure.median
      (List.init 5 (fun _ ->
           let scratch = Spans.create ~enabled:true in
           let (), secs, _ =
             Calls.normalised (fun () ->
                 for _ = 1 to 10_000 do
                   Spans.wrap scratch "probe" ignore
                 done)
           in
           secs *. 1e5))
  in
  Report.note "trace: a span costs %.0f ns, %.2g of a median 1-worker call" span_ns
    (Measure.ratio (span_ns *. 1e-9) (total secs Shm1 /. float_of_int n));
  add rep "knowledge.bound_updates"
    (total (stat (fun st -> st.Stats.bound_updates)) Shm2);
  let pruned = total (stat (fun st -> st.Stats.pruned)) Shm2 in
  let shm2_nodes = total nodes Shm2 in
  add rep "knowledge.prune_ratio" (Measure.ratio pruned (shm2_nodes +. pruned));
  add rep "knowledge.nodes_vs_seq" (Measure.ratio shm2_nodes (total nodes Seq))
