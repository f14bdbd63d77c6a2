(* perfbench: the repository's benchmark, driving the library's public
   entry points from outside and checking every answer.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] is the separate traced run that prints the per-layer
   ledger and writes the benchmark's spans to
   [.perfbench/trace-NAME-seedN.jsonl]. Every metric is printed by name
   with its unit; the last line of standard output is a JSON summary
   holding the gated metrics (see BENCHMARK.json). *)

(* The end-to-end metrics every workload reports in its summary line:
   the ones that hold still when other load shares the host. A call
   on spawned domains (Shm.run at one or two workers, the serve
   fleet's jobs) slows severalfold, call by call, when other load
   takes one of the two cores (see Calls.contention), so nodes_per_s,
   solve_s_*, speedup and the job_* figures are printed only, like the
   workload-specific seq_overhead and the ones that are zero or too
   noisy to gate on a healthy build (minor_words_per_node,
   heap_peak_mb, fail_ratio). *)
let gated = [ "seq_nodes_per_s"; "setup_s" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced ledger") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  let trace = !trace <> 0 and seed = !seed and seconds = !seconds in
  let rep = Report.create () in
  let spans = Spans.create ~enabled:trace in
  Report.note "workload %s  seed %d  seconds %g  trace %b" w.Workloads.name seed
    seconds trace;
  Report.note "why: %s" w.Workloads.why;
  (try
     match w.Workloads.kind with
     | Workloads.Search s -> Search_wl.run rep s ~seed ~seconds ~trace spans
     | Workloads.Serve -> Serve.run rep ~seed ~seconds ~trace spans
   with e -> Report.fail rep "workload" (Printexc.to_string e));
  let keys =
    if trace then begin
      Ledger.fill_missing rep;
      let dir = ".perfbench" in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Printf.sprintf "%s/trace-%s-seed%d.jsonl" dir w.Workloads.name seed
      in
      Spans.write spans path;
      Report.note "spans: %d written to %s" (List.length (Spans.all spans)) path;
      Ledger.names
    end
    else gated
  in
  print_endline (Report.summary rep ~keys)
