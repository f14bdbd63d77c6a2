module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Ops = Yewpar_core.Ops
module Stats = Yewpar_core.Stats

(* Every delta, residual and the coordinator's witness is a partial of
   the search kind's algebra; their merge is the answer. Enumeration
   deltas partition the tree (residuals are empty); for Optimise/Decide
   all are idempotent candidates, and the witness matters when the
   incumbent's finder died before retiring the lease that found it. *)
let combine (type s n r) (p : (s, n, r) Problem.t) (codec : n Codec.t)
    (outcome : Coordinator.outcome) : r =
  match Ops.algebra p.Problem.kind with
  | Ops.Algebra alg ->
    let folded =
      List.fold_left
        (fun acc s -> alg.Ops.merge acc (alg.Ops.decode codec s))
        alg.Ops.empty
        (outcome.Coordinator.deltas @ outcome.Coordinator.residuals)
    in
    let witness =
      Option.map (fun (v, e) -> (v, codec.Codec.decode e)) outcome.Coordinator.witness
    in
    alg.Ops.answer (alg.Ops.merge folded (alg.Ops.of_best witness))

let default_heartbeat = 0.5
let default_failure_timeout = 10.0

let distributed_run (type s n r) ?stats ?broadcasts ?telemetry ?journal
    ?watchdog ?monitor_port ?(heartbeat = default_heartbeat)
    ?(failure_timeout = default_failure_timeout) ?lease_timeout
    ?(max_respawns = 0) ?chaos ?(chaos_seed = 0) ?on_monitor ~localities ~workers ~coordination (p : (s, n, r) Problem.t) : r =
  if localities < 1 then invalid_arg "Dist.run: localities must be >= 1";
  if workers < 1 then invalid_arg "Dist.run: workers must be >= 1";
  if max_respawns < 0 then invalid_arg "Dist.run: max_respawns must be >= 0";
  (* A lease is outstanding before its [Steal_reply] leaves: a dropped
     reply is retired only by the lease timeout, or never. *)
  let drops_replies = function
    | Chaos.Drop_frame { frame = "steal_reply"; prob } -> prob > 0.
    | _ -> false
  in
  if Option.fold ~none:true ~some:(fun t -> t <= 0.) lease_timeout
     && List.exists drops_replies (Option.value chaos ~default:[])
  then
    invalid_arg
      "Dist.run: dropping steal_reply frames needs a positive lease timeout \
       (--lease-timeout)";
  let codec =
    match p.Problem.codec with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Dist.run: problem %S has no task codec and cannot be distributed"
           p.Problem.name)
  in
  (* Respawn works by promotion: OCaml 5 cannot fork once a domain has
     been spawned (the monitor HTTP server runs in one), so the spares
     are pre-forked standby localities, idle until promoted. *)
  let total = localities + max_respawns in
  let plans =
    Array.init total (fun i ->
        match chaos with
        | None -> None
        | Some spec -> Chaos.plan spec ~seed:chaos_seed ~locality:i)
  in
  let started = Unix.gettimeofday () in
  let fleet =
    Fleet.fork total (fun i conn ->
        (* Heartbeats are always on: they feed the coordinator's
           failure detector, not just live monitoring. *)
        Locality.run
          ~record:(Option.is_some telemetry || Option.is_some journal)
          ~heartbeat ?chaos:plans.(i) ~conn ~workers ~coordination p)
  in
  let conns = Array.map snd fleet in
  (* Graceful shutdown: SIGTERM/SIGINT cancel the run through the
     coordinator — Shutdown is broadcast, localities report and exit,
     and the finally block below reaps them, so no orphan survives a
     ^C. The handlers are installed after the fork (children ignore
     SIGINT, see {!Fleet.fork}) and restored on the way out. *)
  let signalled = ref None in
  let name_of s = if s = Sys.sigterm then "SIGTERM" else "SIGINT" in
  let previous =
    List.map
      (fun s ->
        ( s,
          Sys.signal s
            (Sys.Signal_handle
               (fun s -> if !signalled = None then signalled := Some (name_of s)))
        ))
      [ Sys.sigterm; Sys.sigint ]
  in
  let cancelled () =
    Option.map (fun s -> "cancelled by " ^ s) !signalled
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, h) -> Sys.set_signal s h) previous;
      Array.iter (fun c -> try Transport.close c with _ -> ()) conns;
      (* Reap every locality; kill stragglers so no orphan outlives the
         coordinator. *)
      Array.iter (fun (pid, _) -> Fleet.reap pid) fleet)
    (fun () ->
      let outcome =
        Coordinator.run ?watchdog ?monitor_port ?on_monitor
          ~failure_timeout ?lease_timeout ~standby_from:localities
          ~pool_policy:(Yewpar_runtime.Task_pool.policy_for coordination)
          ~cancelled ?journal ?telemetry ~heartbeat ~started ~conns
          ~root_payload:(codec.Codec.encode p.Problem.root) ()
      in
      (match outcome.Coordinator.failure with
      | Some msg -> failwith ("Dist: " ^ msg)
      | None -> ());
      (match stats with
      | Some st -> Stats.add st outcome.Coordinator.stats
      | None -> ());
      (match broadcasts with
      | Some r -> r := outcome.Coordinator.broadcasts
      | None -> ());
      combine p codec outcome)

let run ?stats ?broadcasts ?telemetry ?journal ?watchdog ?monitor_port
    ?heartbeat ?failure_timeout ?lease_timeout ?max_respawns ?chaos
    ?chaos_seed ?on_monitor ~localities ~workers ~coordination p =
  match coordination with
  | Coordination.Sequential ->
    Yewpar_par.Shm.run ?stats ?telemetry ?journal ~coordination p
  | Coordination.Ordered _ ->
    (* Left floors would need positioned incumbents on the wire. *)
    invalid_arg "Dist.run: the ordered skeleton runs on seq, sim and shm only"
  | Coordination.Depth_bounded _ | Coordination.Stack_stealing _
  | Coordination.Budget _ | Coordination.Best_first _
  | Coordination.Random_spawn _ ->
    distributed_run ?stats ?broadcasts ?telemetry ?journal ?watchdog
      ?monitor_port ?heartbeat ?failure_timeout ?lease_timeout ?max_respawns
      ?chaos ?chaos_seed ?on_monitor ~localities ~workers ~coordination p
