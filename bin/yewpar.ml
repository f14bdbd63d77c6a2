(* Command-line front end, mirroring the YewPar artifact's interface:
     yewpar list
     yewpar solve -i brock400_1-s --skeleton depthbounded:2 \
        --runtime sim --localities 8 --workers 15
     yewpar dimacs -f graph.clq --skeleton stacksteal --runtime shm
     yewpar tsplib -f berlin52.tsp --skeleton budget:1000
     yewpar knapsack -f items.txt --skeleton bestfirst:2
*)

module Instances = Yewpar_instances.Instances
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Sim = Yewpar_sim.Sim
module Sim_config = Yewpar_sim.Config
module Metrics = Yewpar_sim.Metrics
module Shm = Yewpar_par.Shm
module Dist = Yewpar_dist.Dist
module Mc = Yewpar_maxclique.Maxclique
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Progress = Yewpar_telemetry.Progress

open Cmdliner

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type runtime = Rt_seq | Rt_sim | Rt_shm | Rt_dist

let runtime_conv =
  let parse = function
    | "seq" -> Ok Rt_seq
    | "sim" -> Ok Rt_sim
    | "shm" -> Ok Rt_shm
    | "dist" -> Ok Rt_dist
    | s -> Error (`Msg (Printf.sprintf "unknown runtime %S (seq|sim|shm|dist)" s))
  in
  Arg.conv (parse, fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Rt_seq -> "seq" | Rt_sim -> "sim" | Rt_shm -> "shm" | Rt_dist -> "dist"))

let coordination_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Coordination.of_string s) in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Coordination.to_string c))

let skeleton_arg =
  Arg.(value & opt coordination_conv Coordination.Sequential
       & info [ "skeleton"; "s" ] ~docv:"SKEL"
           ~doc:"Search coordination: seq, depthbounded:$(i,D), stacksteal, \
                 stacksteal:chunked, budget:$(i,B), bestfirst:$(i,D), \
                 randomspawn:$(i,N), or ordered:$(i,D) (replicable \
                 optimisation; seq, sim and shm runtimes).")

let runtime_arg =
  Arg.(value & opt runtime_conv Rt_sim
       & info [ "runtime"; "r" ] ~docv:"RT"
           ~doc:"Execution runtime: seq (sequential skeleton), sim (simulated \
                 cluster), shm (OCaml domains), dist (multi-process localities).")

let localities_arg =
  Arg.(value & opt int 1
       & info [ "localities"; "l" ] ~docv:"N"
           ~doc:"Localities: simulated (sim) or real worker processes (dist).")

let workers_arg =
  Arg.(value & opt int 15
       & info [ "workers"; "w" ] ~docv:"N"
           ~doc:"Workers per locality (sim, dist) or total domains (shm).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed (sim only).")

(* Observability flags, shared by every solving subcommand. *)

type trace_format = Chrome | Csv

type obs = {
  obs_trace : string option;
  obs_format : trace_format;
  obs_metrics : string option;
  obs_journal : string option;
  obs_monitor : int option;
  obs_progress : bool;
  obs_heartbeat : float;
  obs_depths : string option;
  obs_watchdog : float option;
  obs_failure_timeout : float;
  obs_lease_timeout : float option;
  obs_max_respawns : int;
  obs_chaos : Yewpar_dist.Chaos.t option;
  obs_chaos_seed : int;
}

let obs_term =
  let format_conv =
    let parse = function
      | "chrome" -> Ok Chrome
      | "csv" -> Ok Csv
      | s -> Error (`Msg (Printf.sprintf "unknown trace format %S (chrome|csv)" s))
    in
    Arg.conv (parse, fun ppf f ->
        Format.pp_print_string ppf (match f with Chrome -> "chrome" | Csv -> "csv"))
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a per-worker execution trace to $(docv) (any runtime): \
                   task/steal/idle/bound-update spans for seq, shm and dist, \
                   busy intervals for sim. See $(b,--trace-format).")
  in
  let format =
    Arg.(value & opt format_conv Chrome
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Trace file format: $(b,chrome) (trace-event JSON, open at \
                   ui.perfetto.dev) or $(b,csv) (worker,start,duration,label \
                   rows, the simulator's Gantt format).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write run metrics (counters and duration histograms) to \
                   $(docv) in Prometheus text exposition format.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append a causal event journal to $(docv) as JSONL (seq, \
                   shm and dist runtimes): job, lease, spill, task, steal, \
                   bound, idle and fault events, each carrying trace/span/\
                   parent ids so steals and replays form one causal tree. \
                   Analyze with $(b,yewpar analyze --journal) $(docv).")
  in
  let monitor =
    Arg.(value & opt (some int) None
         & info [ "monitor-port" ] ~docv:"PORT"
             ~doc:"Serve live observability on 127.0.0.1:$(docv) while the \
                   search runs (seq, shm and dist runtimes): $(b,GET /metrics) \
                   renders the run's live fields as Prometheus gauges, \
                   $(b,GET /status) as one JSON object. Port 0 binds an \
                   ephemeral port, printed at startup.")
  in
  let no_progress =
    Arg.(value & flag
         & info [ "no-progress" ]
             ~doc:"Disable the online tree-size estimator (shm runtime): no \
                   per-depth completion sampling, no $(b,progress) block in \
                   $(b,/status), no $(b,yewpar_progress_*) gauges, no \
                   $(b,progress_sample) journal events. The estimator costs \
                   well under 2% of throughput; this flag exists to measure \
                   exactly that.")
  in
  let heartbeat =
    Arg.(value & opt float 0.5
         & info [ "heartbeat-interval" ] ~docv:"SECONDS"
             ~doc:"Locality heartbeat period (dist runtime). Heartbeats feed \
                   both the live metrics ($(b,--monitor-port)) and the \
                   coordinator's failure detector ($(b,--failure-timeout)).")
  in
  let depths =
    Arg.(value & opt (some string) None
         & info [ "depth-profile" ] ~docv:"FILE"
             ~doc:"Write the per-depth search profile \
                   (depth,nodes,pruned,spawned,bound_updates) to $(docv) as \
                   CSV and print it as a table (seq, shm and dist runtimes).")
  in
  let watchdog =
    Arg.(value & opt (some float) None
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Abort the run if the search has not completed after \
                   $(docv) seconds (dist runtime). The failure report names \
                   each locality's last-heartbeat age.")
  in
  let failure_timeout =
    Arg.(value & opt float 10.0
         & info [ "failure-timeout" ] ~docv:"SECONDS"
             ~doc:"Declare a locality dead after $(docv) seconds of heartbeat \
                   silence and replay its unretired task leases on survivors \
                   (dist runtime); 0 or negative disables the detector \
                   (socket EOF still counts as death).")
  in
  let lease_timeout =
    Arg.(value & opt (some float) None
         & info [ "lease-timeout" ] ~docv:"SECONDS"
             ~doc:"Revoke and replay any task lease still outstanding after \
                   $(docv) seconds (dist runtime; off by default). A safety \
                   net against lost frames — the original holder's late \
                   results are discarded, never double-counted.")
  in
  let max_respawns =
    Arg.(value & opt int 0
         & info [ "max-respawns" ] ~docv:"N"
             ~doc:"Pre-fork $(docv) standby localities and promote one for \
                   each locality lost (dist runtime).")
  in
  let chaos_conv =
    Arg.conv
      ( (fun s ->
          match Yewpar_dist.Chaos.parse s with
          | Ok c -> Ok c
          | Error msg -> Error (`Msg msg)),
        fun ppf c ->
          Format.pp_print_string ppf (Yewpar_dist.Chaos.describe c) )
  in
  let chaos =
    Arg.(value & opt (some chaos_conv) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Inject faults into the dist runtime for testing: \
                   comma-separated $(b,kill-locality:ID@TIMEs) (SIGKILL a \
                   locality mid-run), $(b,kill-locality:ID@leases:N) (SIGKILL \
                   it on its N-th lease), $(b,drop-frame:TYPE:PROB) (drop inbound \
                   wire frames), $(b,delay:Nms) (slow the link).")
  in
  let chaos_seed =
    Arg.(value & opt int 0
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed for randomized chaos decisions (frame drops), so a \
                   failing run replays deterministically.")
  in
  let combine obs_trace obs_format obs_metrics obs_journal obs_monitor no_progress obs_heartbeat obs_depths obs_watchdog
      obs_failure_timeout obs_lease_timeout obs_max_respawns obs_chaos
      obs_chaos_seed =
    { obs_trace; obs_format; obs_metrics; obs_journal; obs_monitor;
      obs_progress = not no_progress; obs_heartbeat; obs_depths;
      obs_watchdog; obs_failure_timeout; obs_lease_timeout;
      obs_max_respawns; obs_chaos; obs_chaos_seed }
  in
  Term.(const combine $ trace $ format $ metrics $ journal $ monitor $ no_progress $ heartbeat $ depths $ watchdog
        $ failure_timeout $ lease_timeout $ max_respawns $ chaos $ chaos_seed)

let write_file file data =
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc data)

(* Export the sink to the requested files and report what was written. *)
let export_observability obs = function
  | None -> ()
  | Some tl ->
    (match obs.obs_trace with
    | Some file ->
      write_file file
        (match obs.obs_format with
        | Chrome -> Telemetry.to_chrome tl
        | Csv -> Telemetry.to_csv tl);
      Printf.printf "trace:    %s (%d events, %d dropped)\n" file
        (List.length (Telemetry.events tl))
        (Telemetry.dropped tl)
    | None -> ());
    (match obs.obs_metrics with
    | Some file ->
      write_file file (Telemetry.to_prometheus tl);
      Printf.printf "metrics:  %s (prometheus)\n" file
    | None -> ())

module Depth_profile = Yewpar_core.Depth_profile

let export_depths obs stats =
  match obs.obs_depths with
  | None -> ()
  | Some file ->
    let d = stats.Stats.depths in
    write_file file (Depth_profile.to_csv d);
    Format.printf "depths:@.%a@." Depth_profile.pp d;
    Printf.printf "depth-profile: %s (csv, %d depths)\n" file
      (Depth_profile.depths d)

(* Monitoring startup announcement — essential with --monitor-port 0,
   where the kernel picks the port. *)
let announce_monitor port =
  Printf.printf "monitor:  http://127.0.0.1:%d (/metrics, /status)\n%!" port

(* Run a packed problem on the chosen runtime and print everything. *)
let execute ~runtime ~coordination ~localities ~workers ~seed ~obs
    (Instances.Packed (p, show)) =
  let telemetry =
    if obs.obs_trace <> None || obs.obs_metrics <> None then
      Some (Telemetry.create ())
    else None
  in
  let journal =
    Option.map (fun path -> Journal.create ~path ()) obs.obs_journal
  in
  let close_journal () =
    match (journal, obs.obs_journal) with
    | Some w, Some file ->
      Printf.printf "journal:  %s (%d events, trace %s)\n" file
        (Journal.written w) (Journal.trace w);
      Journal.close w
    | _ -> ()
  in
  let run () =
    match runtime with
    | (Rt_seq | Rt_shm) as rt ->
      (* seq is the worker core on one slot under Sequential. *)
      let workers, coordination =
        if rt = Rt_seq then (1, Coordination.Sequential)
        else (workers, coordination)
      in
      let stats = Stats.create () in
      let result, elapsed =
        wall (fun () ->
            Shm.run ~workers ~stats ?telemetry ?journal
              ?monitor_port:obs.obs_monitor ~on_monitor:announce_monitor
              ~progress:obs.obs_progress ~coordination p)
      in
      stats.Stats.elapsed <- elapsed;
      Printf.printf "result:   %s\n" (show result);
      Format.printf "stats:    %a@." Stats.pp stats;
      Printf.printf "walltime: %.3fs (%d domains)\n" elapsed workers;
      export_observability obs telemetry;
      export_depths obs stats
    | Rt_dist ->
      let stats = Stats.create () in
      let result, elapsed =
        wall (fun () ->
            Dist.run ~stats ?telemetry ?journal ?monitor_port:obs.obs_monitor
              ~heartbeat:obs.obs_heartbeat ?watchdog:obs.obs_watchdog
              ~failure_timeout:obs.obs_failure_timeout
              ?lease_timeout:obs.obs_lease_timeout
              ~max_respawns:obs.obs_max_respawns ?chaos:obs.obs_chaos
              ~chaos_seed:obs.obs_chaos_seed ~on_monitor:announce_monitor
              ~localities ~workers ~coordination p)
      in
      stats.Stats.elapsed <- elapsed;
      Printf.printf "result:   %s\n" (show result);
      Format.printf "stats:    %a@." Stats.pp stats;
      Printf.printf "fault:    localities_lost=%d leases_reissued=%d respawns=%d\n"
        stats.Stats.localities_lost stats.Stats.leases_reissued
        stats.Stats.respawns;
      Printf.printf "walltime: %.3fs (%d localities x %d workers)\n" elapsed
        localities workers;
      export_observability obs telemetry;
      export_depths obs stats
    | Rt_sim ->
      let topology = Sim_config.topology ~localities ~workers in
      let (result, metrics), elapsed =
        wall (fun () -> Sim.run ~seed ?trace:telemetry ~topology ~coordination p)
      in
      let _, seq_time = Sim.virtual_sequential p in
      Printf.printf "result:   %s\n" (show result);
      Format.printf "metrics:  %a@." Metrics.pp metrics;
      Printf.printf "speedup:  %.2fx vs sequential virtual time %.4fs\n"
        (Metrics.speedup ~sequential_time:seq_time metrics)
        seq_time;
      Printf.printf "walltime: %.3fs (host)\n" elapsed;
      if obs.obs_journal <> None then
        prerr_endline
          "yewpar: --journal is not supported by the sim runtime (virtual \
           time); use seq, shm or dist";
      export_observability obs telemetry
  in
  (* A rejected configuration (a bad worker count, a skeleton the
     problem or runtime cannot run) is a user error on every runtime. *)
  (match run () with
  | () -> ()
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1);
  close_journal ()

let list_cmd =
  let run () =
    List.iter
      (fun i -> Printf.printf "%-20s %s\n" i.Instances.name i.Instances.app)
      (Instances.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List registered benchmark instances.")
    Term.(const run $ const ())

let solve_cmd =
  let instance_arg =
    Arg.(required & opt (some string) None
         & info [ "instance"; "i" ] ~docv:"NAME" ~doc:"Instance name (see $(b,list)).")
  in
  let run name coordination runtime localities workers seed obs =
    match Instances.find name with
    | exception Not_found ->
      Printf.eprintf "unknown instance %S; try `yewpar list'\n" name;
      exit 1
    | inst ->
      Printf.printf "instance: %s (%s)\n" inst.Instances.name inst.Instances.app;
      Printf.printf "skeleton: %s\n" (Coordination.to_string coordination);
      execute ~runtime ~coordination ~localities ~workers ~seed ~obs
        (Lazy.force inst.Instances.problem)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Run a registered instance under a chosen skeleton.")
    Term.(const run $ instance_arg $ skeleton_arg $ runtime_arg $ localities_arg
          $ workers_arg $ seed_arg $ obs_term)

let dimacs_cmd =
  let file_arg =
    Arg.(required & opt (some file) None
         & info [ "file"; "f" ] ~docv:"FILE" ~doc:"DIMACS .clq graph file.")
  in
  let kclique_arg =
    Arg.(value & opt (some int) None
         & info [ "decision-bound"; "k" ] ~docv:"K"
             ~doc:"Search for a clique of size $(docv) (decision) instead of a \
                   maximum clique (optimisation).")
  in
  let run file k coordination runtime localities workers seed obs =
    let graph = Yewpar_graph.Dimacs.parse_file file in
    Printf.printf "graph:    %s (%d vertices, %d edges)\n" file
      (Yewpar_graph.Graph.n_vertices graph)
      (Yewpar_graph.Graph.n_edges graph);
    Printf.printf "skeleton: %s\n" (Coordination.to_string coordination);
    (* DIMACS numbers vertices from 1; the graph from 0. *)
    let show_clique n =
      String.concat ", " (List.map (fun v -> string_of_int (v + 1)) (Mc.vertices_of n))
    in
    let packed =
      match k with
      | None ->
        Instances.Packed
          ( Mc.max_clique graph,
            fun n ->
              Printf.sprintf "maximum clique of size %d: {%s}" n.Mc.size (show_clique n) )
      | Some k ->
        Instances.Packed
          ( Mc.k_clique graph ~k,
            function
            | Some n -> Printf.sprintf "found a %d-clique: {%s}" n.Mc.size (show_clique n)
            | None -> Printf.sprintf "no clique of size %d" k )
    in
    execute ~runtime ~coordination ~localities ~workers ~seed ~obs packed
  in
  Cmd.v
    (Cmd.info "dimacs"
       ~doc:"Solve Maximum Clique or k-Clique on a DIMACS graph file.")
    Term.(const run $ file_arg $ kclique_arg $ skeleton_arg $ runtime_arg
          $ localities_arg $ workers_arg $ seed_arg $ obs_term)

let tsplib_cmd =
  let file_arg =
    Arg.(required & opt (some file) None
         & info [ "file"; "f" ] ~docv:"FILE" ~doc:"TSPLIB .tsp file (EUC_2D/CEIL_2D).")
  in
  let max_length_arg =
    Arg.(value & opt (some int) None
         & info [ "max-length"; "L" ] ~docv:"L"
             ~doc:"Find a tour of length at most $(docv) (decision) instead of a \
                   shortest tour (optimisation).")
  in
  let run file max_length coordination runtime localities workers seed obs =
    let inst = Yewpar_tsp.Tsplib.parse_file file in
    Printf.printf "instance: %s (%d cities)\n" file (Yewpar_tsp.Tsp.n_cities inst);
    Printf.printf "skeleton: %s\n" (Coordination.to_string coordination);
    (* TSPLIB numbers cities from 1; the instance from 0. *)
    let show_tour n =
      Printf.sprintf "tour of length %d: %s"
        (Yewpar_tsp.Tsp.closed_length inst n)
        (String.concat " -> "
           (List.map (fun c -> string_of_int (c + 1)) (Yewpar_tsp.Tsp.tour_of inst n)))
    in
    let packed =
      match max_length with
      | None -> Instances.Packed (Yewpar_tsp.Tsp.problem inst, show_tour)
      | Some l ->
        Instances.Packed
          ( Yewpar_tsp.Tsp.decision inst ~max_length:l,
            function
            | Some n -> "found a " ^ show_tour n
            | None -> Printf.sprintf "no tour of length <= %d" l )
    in
    execute ~runtime ~coordination ~localities ~workers ~seed ~obs packed
  in
  Cmd.v (Cmd.info "tsplib" ~doc:"Solve a TSPLIB travelling-salesperson instance.")
    Term.(const run $ file_arg $ max_length_arg $ skeleton_arg $ runtime_arg
          $ localities_arg $ workers_arg $ seed_arg $ obs_term)

let knapsack_cmd =
  let file_arg =
    Arg.(required & opt (some file) None
         & info [ "file"; "f" ] ~docv:"FILE"
             ~doc:"Knapsack file: header \"n capacity\", then n \"profit weight\" lines.")
  in
  let target_arg =
    Arg.(value & opt (some int) None
         & info [ "target"; "t" ] ~docv:"P"
             ~doc:"Find a selection of profit at least $(docv) (decision) instead \
                   of the maximum profit (optimisation).")
  in
  let run file target coordination runtime localities workers seed obs =
    let ic = open_in file in
    let inst =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Yewpar_knapsack.Knapsack.parse_string (In_channel.input_all ic))
    in
    Printf.printf "instance: %s (%d items, capacity %d)\n" file
      (Array.length (Yewpar_knapsack.Knapsack.items inst))
      (Yewpar_knapsack.Knapsack.capacity inst);
    Printf.printf "skeleton: %s\n" (Coordination.to_string coordination);
    let show (n : Yewpar_knapsack.Knapsack.node) =
      Printf.sprintf "profit %d, weight %d, %d items"
        n.Yewpar_knapsack.Knapsack.profit n.Yewpar_knapsack.Knapsack.weight
        (List.length n.Yewpar_knapsack.Knapsack.taken)
    in
    let packed =
      match target with
      | None -> Instances.Packed (Yewpar_knapsack.Knapsack.problem inst, show)
      | Some t ->
        Instances.Packed
          ( Yewpar_knapsack.Knapsack.decision inst ~target:t,
            function
            | Some n -> "found " ^ show n
            | None -> Printf.sprintf "no selection reaches profit %d" t )
    in
    execute ~runtime ~coordination ~localities ~workers ~seed ~obs packed
  in
  Cmd.v (Cmd.info "knapsack" ~doc:"Solve a 0/1 knapsack instance from a file.")
    Term.(const run $ file_arg $ target_arg $ skeleton_arg $ runtime_arg
          $ localities_arg $ workers_arg $ seed_arg $ obs_term)

let serve_cmd =
  let module Server = Yewpar_server.Server in
  let port_arg =
    Arg.(value & opt int 8080
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"HTTP port on 127.0.0.1 (0 binds an ephemeral port, printed \
                   at startup).")
  in
  let serve_localities_arg =
    Arg.(value & opt int 2
         & info [ "localities"; "l" ] ~docv:"N"
             ~doc:"Fleet size: persistent locality processes available to \
                   jobs, forked once at startup.")
  in
  let serve_workers_arg =
    Arg.(value & opt int 2
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Search domains per locality.")
  in
  let max_jobs_arg =
    Arg.(value & opt int 2
         & info [ "max-jobs" ] ~docv:"N"
             ~doc:"Run at most $(docv) jobs concurrently; further accepted \
                   jobs wait in the queue.")
  in
  let queue_depth_arg =
    Arg.(value & opt int 16
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admit at most $(docv) waiting jobs; $(b,POST /jobs) \
                   answers 429 beyond that.")
  in
  let serve_respawns_arg =
    Arg.(value & opt int 0
         & info [ "max-respawns" ] ~docv:"N"
             ~doc:"Fork $(docv) spare localities up front: extra fleet \
                   capacity that absorbs crashed slots, which are retired \
                   rather than reused.")
  in
  let serve_heartbeat_arg =
    Arg.(value & opt float 0.2
         & info [ "heartbeat-interval" ] ~docv:"SECONDS"
             ~doc:"Locality heartbeat period while running a job.")
  in
  let serve_failure_arg =
    Arg.(value & opt float 10.0
         & info [ "failure-timeout" ] ~docv:"SECONDS"
             ~doc:"Heartbeat-silence limit before a job declares one of its \
                   localities dead and replays its leases on survivors; 0 or \
                   negative disables the detector.")
  in
  let serve_lease_arg =
    Arg.(value & opt (some float) None
         & info [ "lease-timeout" ] ~docv:"SECONDS"
             ~doc:"Revoke and replay any task lease still outstanding after \
                   $(docv) seconds (off by default).")
  in
  let job_watchdog_arg =
    Arg.(value & opt (some float) None
         & info [ "job-watchdog" ] ~docv:"SECONDS"
             ~doc:"Fail any single job that has not completed after $(docv) \
                   seconds; its fleet slots are retired.")
  in
  let serve_journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append every job's causal event journal to $(docv) as \
                   JSONL, one trace per job id, including \
                   submitted/scheduled/finished daemon events. Analyze with \
                   $(b,yewpar analyze --journal) $(docv).")
  in
  let run port localities workers max_jobs queue_depth max_respawns heartbeat
      failure_timeout lease_timeout job_watchdog journal =
    (* Every registered instance whose problem carries a task codec is
       servable; the rest are CLI/bench-only. *)
    let registry =
      List.filter_map
        (fun i ->
          let (Instances.Packed (p, show)) = Lazy.force i.Instances.problem in
          match Server.servable p ~show with
          | Ok sv -> Some (i.Instances.name, sv)
          | Error _ -> None)
        (Instances.all ())
    in
    let config =
      { Server.port; localities; workers; max_jobs; queue_depth; max_respawns;
        heartbeat; failure_timeout; lease_timeout; job_watchdog; journal;
        log = true }
    in
    let t =
      match Server.start ~config ~registry () with
      | t -> t
      | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    Printf.printf
      "serve:    http://127.0.0.1:%d (POST /jobs, GET /jobs/:id, GET \
       /jobs/:id/result, DELETE /jobs/:id, GET /metrics, GET /status)\n"
      (Server.port t);
    Printf.printf "fleet:    %d localities x %d workers (+%d spares), %d \
                   servable problems\n%!"
      localities workers max_respawns (List.length registry);
    (match journal with
    | Some f -> Printf.printf "journal:  %s (jsonl, one trace per job)\n%!" f
    | None -> ());
    (* Graceful shutdown: first SIGTERM/SIGINT cancels every job, quits
       and reaps the whole fleet — no orphan locality survives. *)
    let stop_requested = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop_requested := true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    while not !stop_requested do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.printf "serve:    shutting down\n%!";
    Server.stop t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a multi-tenant search job server: a persistent pre-forked \
             locality fleet accepting concurrent search jobs over HTTP/JSON.")
    Term.(const run $ port_arg $ serve_localities_arg $ serve_workers_arg
          $ max_jobs_arg $ queue_depth_arg $ serve_respawns_arg
          $ serve_heartbeat_arg $ serve_failure_arg $ serve_lease_arg
          $ job_watchdog_arg $ serve_journal_arg)

let analyze_cmd =
  let module Analyze = Yewpar_telemetry.Analyze in
  let compare_arg =
    Arg.(value & opt (some file) None
         & info [ "compare" ] ~docv:"OLD"
             ~doc:"Compare $(b,bench --json) output $(docv) (baseline) against \
                   the $(i,NEW) positional argument; exits 1 when any \
                   benchmark regressed beyond $(b,--threshold).")
  in
  let new_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"NEW"
             ~doc:"The new bench JSON file for $(b,--compare).")
  in
  let threshold_arg =
    Arg.(value & opt float 10.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Regression threshold for $(b,--compare): a benchmark fails \
                   when its elapsed time grows by more than $(docv) percent.")
  in
  let journal_arg =
    Arg.(value & opt (some file) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Analyze a causal event journal written by $(b,--journal) \
                   (solve or serve): per-trace critical path through the \
                   lease tree, overhead breakdown (compute / replay-waste / \
                   steal-wait / idle), the longest leases, a flame-ordered \
                   span summary and the load balance (per-worker busy/idle, \
                   imbalance, steal-latency percentiles).")
  in
  let top_arg =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"K"
             ~doc:"How many of the longest leases $(b,--journal) lists.")
  in
  let read_file file =
    In_channel.with_open_bin file In_channel.input_all
  in
  let run compare journal new_file threshold top =
    let code =
      match (compare, journal) with
      | Some old_file, None -> (
        match new_file with
        | None ->
          prerr_endline
            "yewpar analyze: --compare OLD needs a NEW positional file";
          2
        | Some new_file -> (
          match
            ( Analyze.load_bench (read_file old_file),
              Analyze.load_bench (read_file new_file) )
          with
          | old_, new_ ->
            let v = Analyze.compare_bench ~threshold_pct:threshold ~old_ ~new_ in
            print_string v.Analyze.report;
            if v.Analyze.regressions = [] then 0 else 1
          | exception Failure msg ->
            Printf.eprintf "yewpar analyze: %s\n" msg;
            2))
      | None, Some file -> (
        match Journal.read file with
        | entries, malformed ->
          print_string (Journal.report ~top entries);
          if malformed > 0 then
            Printf.printf "malformed: %d line(s) skipped\n" malformed;
          0
        | exception Sys_error msg ->
          Printf.eprintf "yewpar analyze: %s\n" msg;
          2
        | exception Failure msg ->
          Printf.eprintf "yewpar analyze: %s: %s\n" file msg;
          2)
      | None, None ->
        prerr_endline
          "yewpar analyze: nothing to do (use --compare OLD NEW or --journal \
           FILE)";
        2
      | Some _, Some _ ->
        prerr_endline "yewpar analyze: --compare and --journal are exclusive";
        2
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Compare two bench JSON files (A/B regression check), or turn \
             a causal event journal into a critical-path, overhead and \
             load-balance report.")
    Term.(const run $ compare_arg $ journal_arg
          $ new_arg $ threshold_arg $ top_arg)

let top_cmd =
  let module Analyze = Yewpar_telemetry.Analyze in
  let module Http = Yewpar_telemetry.Http_export in
  let port_arg =
    Arg.(value & opt (some int) None
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"Poll $(b,GET /status) on 127.0.0.1:$(docv) — a running \
                   $(b,solve --monitor-port) search or a $(b,serve) daemon.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Tail a causal journal: re-read $(docv) every frame and \
                   show its live critical-path report.")
  in
  let interval_arg =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between frames.")
  in
  let iterations_arg =
    Arg.(value & opt int 0
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Render $(docv) frames then exit (0 = until interrupted).")
  in
  (* Generic /status renderer: both the solve monitor and the serve
     daemon answer JSON objects, with different keys — render scalar
     fields as "key: value" lines and arrays of objects as tables, so
     either shape is readable without baking its schema in here. *)
  let scalar = function
    | Analyze.Str s -> Some s
    | Analyze.Num f ->
      Some
        (if Float.is_integer f then string_of_int (int_of_float f)
         else Printf.sprintf "%.3f" f)
    | Analyze.Bool b -> Some (string_of_bool b)
    | Analyze.Null -> Some "-"
    | Analyze.Obj _ | Analyze.Arr _ -> None
  in
  (* A /status "progress" object -> the shared report shape, so the
     bar and ETA renderers apply to any runtime's snapshot. *)
  let report_of_fields fs =
    let num k d =
      match List.assoc_opt k fs with Some (Analyze.Num f) -> f | _ -> d
    in
    {
      Progress.idle with
      Progress.r_nodes = int_of_float (num "nodes" 0.);
      r_total = num "est_total" (-1.);
      r_fraction = num "completed_fraction" 0.;
      r_rate = num "rate" 0.;
      r_eta = num "eta_seconds" (-1.);
    }
  in
  let progress_line fs =
    let r = report_of_fields fs in
    Printf.sprintf "%s %3.0f%% eta %s (%d nodes, %.0f/s)"
      (Progress.bar ~width:20 r)
      (100. *. r.Progress.r_fraction)
      (Progress.eta_string r) r.Progress.r_nodes r.Progress.r_rate
  in
  let render_json json =
    let b = Buffer.create 256 in
    (match json with
    | Analyze.Obj fields ->
      List.iter
        (fun (k, v) ->
          match v with
          | Analyze.Obj sub when k = "progress" ->
            Buffer.add_string b
              (Printf.sprintf "%-10s %s\n" (k ^ ":") (progress_line sub))
          | Analyze.Obj sub ->
            let parts =
              List.filter_map
                (fun (k2, v2) ->
                  Option.map (fun s -> k2 ^ "=" ^ s) (scalar v2))
                sub
            in
            Buffer.add_string b
              (Printf.sprintf "%-10s %s\n" (k ^ ":") (String.concat " " parts))
          | Analyze.Arr (Analyze.Obj first :: _ as rows) ->
            let header = List.map fst first in
            let cells = function
              | Analyze.Obj fs ->
                List.map
                  (fun h ->
                    match List.assoc_opt h fs with
                    (* A nested progress object (a serve job row)
                       collapses to its completion percentage. *)
                    | Some (Analyze.Obj sub)
                      when List.mem_assoc "completed_fraction" sub -> (
                      match List.assoc "completed_fraction" sub with
                      | Analyze.Num f -> Printf.sprintf "%.0f%%" (100. *. f)
                      | _ -> "...")
                    | Some v -> Option.value (scalar v) ~default:"..."
                    | None -> "")
                  header
              | _ -> List.map (fun _ -> "") header
            in
            Buffer.add_string b (k ^ ":\n");
            Buffer.add_string b
              (Yewpar_util.Table.render ~header (List.map cells rows))
          | Analyze.Arr [] ->
            Buffer.add_string b (Printf.sprintf "%-10s (none)\n" (k ^ ":"))
          | v -> (
            match scalar v with
            | Some s ->
              Buffer.add_string b (Printf.sprintf "%-10s %s\n" (k ^ ":") s)
            | None -> ()))
        fields
    | _ -> Buffer.add_string b (Analyze.to_string json ^ "\n"));
    Buffer.contents b
  in
  let run port journal interval iterations =
    if port = None && journal = None then begin
      prerr_endline "yewpar top: nothing to watch (use --port and/or --journal)";
      exit 2
    end;
    let tty = Unix.isatty Unix.stdout in
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    let frame = ref 0 in
    while (not !stop) && (iterations = 0 || !frame < iterations) do
      incr frame;
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "yewpar top - frame %d%s\n" !frame
           (match port with
           | Some p -> Printf.sprintf " - 127.0.0.1:%d" p
           | None -> ""));
      (match port with
      | None -> ()
      | Some p -> (
        match Http.request ~timeout:2.0 ~port:p "/status" with
        | status, body when status / 100 = 2 -> (
          match Analyze.parse_json body with
          | json -> Buffer.add_string buf (render_json json)
          | exception _ -> Buffer.add_string buf body)
        | status, _ ->
          Buffer.add_string buf
            (Printf.sprintf
               "error:    127.0.0.1:%d answered /status with HTTP %d\n" p status)
        | exception _ ->
          Buffer.add_string buf
            (Printf.sprintf "status:   127.0.0.1:%d unreachable\n" p)));
      (match journal with
      | None -> ()
      | Some file -> (
        match Journal.read file with
        | entries, _ -> Buffer.add_string buf (Journal.report ~top:5 entries)
        | exception Sys_error _ ->
          Buffer.add_string buf
            (Printf.sprintf "journal:  %s not readable yet\n" file)));
      if tty then print_string "\027[2J\027[H";
      print_string (Buffer.contents buf);
      flush stdout;
      if (not !stop) && (iterations = 0 || !frame < iterations) then
        try Unix.sleepf interval
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a running search or job server: poll \
             $(b,GET /status) and/or tail a causal journal, redrawing every \
             interval.")
    Term.(const run $ port_arg $ journal_arg $ interval_arg $ iterations_arg)

let () =
  let doc = "YewPar-style parallel search skeletons (OCaml reproduction)" in
  let info = Cmd.info "yewpar" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; solve_cmd; dimacs_cmd; tsplib_cmd; knapsack_cmd;
            serve_cmd; analyze_cmd; top_cmd ]))
