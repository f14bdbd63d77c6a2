(* The in-process search workloads: enum-steal, bnb-spawn and clique.

   Set-up (instance generation, Sequential oracles, one warm-up call)
   runs three times and [setup_s] is the median. The measured phase
   then cycles over the inputs until the time is up, timing 2-worker
   [Shm.run] calls, [Sequential.search] calls on the same inputs and,
   on MaxClique inputs, [Mc.Specialised] (Table 1). *)

type op = Shm2 | Seq | Spec

let ops_of input =
  match Inputs.app input with "maxclique" -> [ Spec; Seq ] | _ -> [ Shm2; Seq ]

type setup = {
  inputs : Inputs.input list;
  instances_s : float;
  oracle_s : float;
  warmup_s : float;
}

(* Compute every pending input's oracle; a raising one is a failure
   and its inputs are dropped. *)
let oracles rep pending =
  List.concat
    (List.filter_map (fun p -> Report.checked rep "oracle" (fun () -> (p (), None))) pending)

let setup_once rep (w : Workloads.search) ~seed =
  let t0 = Calls.now () in
  let pending = w.Workloads.inputs seed in
  let t1 = Calls.now () in
  let inputs = oracles rep pending in
  let t2 = Calls.now () in
  (* The warm-up is a Sequential call: a call on spawned domains slows
     severalfold whenever other load takes a core (see
     Calls.contention), and setup_s is gated. *)
  (match inputs with i :: _ -> ignore (Calls.seq rep i) | [] -> ());
  let t3 = Calls.now () in
  { inputs; instances_s = t1 -. t0; oracle_s = t2 -. t1; warmup_s = t3 -. t2 }

let setup rep w ~seed =
  let runs = List.init 3 (fun _ -> Calls.normalised (fun () -> setup_once rep w ~seed)) in
  let med f = Measure.median (List.map (fun (s, _, _) -> f s) runs) in
  let last, _, _ = List.nth runs 2 in
  ( last,
    Measure.median (List.map (fun (_, norm, _) -> norm) runs),
    [ ("setup.instances_s", med (fun s -> s.instances_s));
      ("setup.oracle_s", med (fun s -> s.oracle_s));
      ("setup.fleet_s", 0.);
      ("setup.warmup_s", med (fun s -> s.warmup_s)) ] )

(* Timed samples per (op, input index). *)
let measure rep ~coordination ~deadline inputs =
  let samples = Calls.Table.create () in
  let run idx input op =
    (* Every call starts from a collected heap, so no call pays for
       the garbage of the one before (as in the ledger). *)
    Gc.full_major ();
    let s =
      match op with
      | Shm2 -> Calls.shm rep ~workers:2 ~coordination input
      | Seq -> Calls.seq rep input
      | Spec -> Calls.spec rep input
    in
    Option.iter (Calls.Table.add samples (op, idx)) s
  in
  while Calls.now () < deadline do
    List.iteri (fun idx input -> List.iter (run idx input) (ops_of input)) inputs
  done;
  samples

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Every per-call figure is first summarised per input (median), then
   combined across inputs (see Calls.Table). *)
let report_e2e rep ~setup_s ~coordination tbl ~inputs =
  let open Calls in
  let sum_ratio = Table.sum_ratio tbl ~inputs in
  let shm2 = Table.groups tbl Shm2 ~inputs in
  let times = List.map (List.map secs) shm2 in
  Report.note "calls: %d x 2-worker %s, %d x Sequential, %d x Mc.Specialised"
    (Table.count tbl Shm2)
    (Yewpar_core.Coordination.to_string coordination)
    (Table.count tbl Seq) (Table.count tbl Spec);
  Report.note "as measured, before normalising to the reference speed: \
               nodes_per_s %.4g, solve_s_p50 %.4g s, seq_nodes_per_s %.4g"
    (sum_ratio (Shm2, nodes) (Shm2, raw))
    (Measure.group_p50 (List.map (List.map raw) shm2))
    (sum_ratio (Seq, nodes) (Seq, raw));
  Report.add rep "nodes_per_s" "1/s" (sum_ratio (Shm2, nodes) (Shm2, secs));
  Report.add rep "solve_s_p50" "s" (Measure.group_p50 times);
  let tail = Measure.group_tail times in
  Report.note "solve_s_tail is p%.1f of %d calls (%d beyond), per-input normalised"
    tail.Measure.pct tail.Measure.samples tail.Measure.beyond;
  Report.add rep "solve_s_tail" "s" tail.Measure.value;
  Report.add rep "seq_nodes_per_s" "1/s" (sum_ratio (Seq, nodes) (Seq, secs));
  Report.add rep "speedup" "x" (sum_ratio (Seq, secs) (Shm2, secs));
  if Table.count tbl Spec > 0 then
    Report.add rep "seq_overhead" "x" (sum_ratio (Seq, secs) (Spec, secs));
  let ok, w = gc_counts_joined_domains () in
  Report.note "gc self-check: a joined domain's %.0f minor words %s" w
    (if ok then "are counted" else "are NOT counted; minor_words_per_node unreliable");
  Report.add rep "minor_words_per_node" "words"
    (sum_ratio (Shm2, words) (Shm2, nodes));
  Report.add rep "heap_peak_mb" "MB" (heap_peak_mb ());
  Report.add rep "fail_ratio" "ratio" (Report.fail_ratio rep);
  Report.add rep "setup_s" "s" setup_s

let run rep (w : Workloads.search) ~seed ~seconds ~trace spans =
  let s, setup_s, setup_layers = setup rep w ~seed in
  List.iter
    (fun (Inputs.Input i) ->
      Report.note "input %-16s oracle %-14s %9d nodes%s  (%.3fs)" i.label
        i.oracle i.nodes
        (if i.exact then " exact" else "")
        i.oracle_s)
    s.inputs;
  let gauge = Calls.contention () in
  let deadline = Calls.now () +. seconds in
  if not trace then begin
    let tbl =
      measure rep ~coordination:w.Workloads.coordination ~deadline s.inputs
    in
    report_e2e rep ~setup_s ~coordination:w.Workloads.coordination tbl
      ~inputs:(List.length s.inputs)
  end
  else begin
    List.iter (fun (k, v) -> Ledger.add rep k v) setup_layers;
    Ledger.search_layers rep spans ~coordination:w.Workloads.coordination
      ~deadline s.inputs
  end;
  Report.note
    "host contention gauge (see Calls.contention): %.1f before the measured \
     phase, %.1f after; about 6 on a quiet host"
    gauge (Calls.contention ())
