module Recorder = Yewpar_telemetry.Recorder
module Journal = Yewpar_telemetry.Journal
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Stats = Yewpar_core.Stats
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Worker = Yewpar_runtime.Worker

(* The per-lease result ledger, keyed by lease so a dead locality's
   unretired leases can be replayed without double-counting the retired
   ones. Workers fold each task's contribution into a private scratch
   partial ({!Ops.algebra}) and merge it into the lease's entry under a
   mutex once per task — before the task is counted finished, so full
   quiescence implies every delta is visible to the communicator. *)
type ledger = {
  register : int -> unit;  (** A lease arrived from the coordinator. *)
  end_task : int -> unit;
      (** Merge the worker's scratch into its current lease's entry. *)
  pending : unit -> bool;  (** Any lease taken since the last {!retire}? *)
  retire : unit -> (int * string) list;
      (** Snapshot and clear: every taken lease with its encoded delta. *)
  residual : unit -> string;  (** The final [Report]'s residual. *)
}

(* The communicator's [select] timeout when nothing is happening:
   smaller means snappier steal routing and bound propagation at the
   price of more wakeups. *)
let comm_tick = 0.002

(* A steal reply lost in transit (a dropped frame, failed-over
   coordinator state) must not starve the thief forever: re-request
   after this many seconds. *)
let steal_retry = 0.5

let run (type s n r) ?(record = false) ?heartbeat ?chaos ~conn ~workers
    ~coordination
    (p : (s, n, r) Problem.t) : unit =
  let codec =
    match p.Problem.codec with
    | Some c -> c
    | None -> invalid_arg "Locality.run: problem has no task codec"
  in
  (* One counter bundle shared with the worker core; one slot per
     worker domain plus one for the communicator thread (slot
     [workers]: it books wire steals and floor adoptions, which land in
     its depth profile at depth 0). The workers' take books no steals,
     so the folded steal counts are wire steals only. The rings are
     drained into every heartbeat and the final Report; span ids are
     the lease ids the coordinator issued, so everything links into its
     lease forest, and the coordinator stamps our locality index on
     arrival (we don't know our own). *)
  let counters = Counters.create ~slots:(workers + 1) () in
  let recorders =
    if record then Array.init (workers + 1) (fun i -> Recorder.create ~worker:i ())
    else Array.make (workers + 1) Recorder.null
  in
  let drain () =
    List.concat_map (fun r -> Recorder.drain r) (Array.to_list recorders)
  in
  let comms_r = recorders.(workers) in
  let monitored = heartbeat <> None in
  let started = Recorder.clock () in
  let started_wall = Unix.gettimeofday () in
  let kill_deadline =
    match chaos with
    | Some c ->
      Option.map (fun after -> started_wall +. after) c.Chaos.kill_after
    | None -> None
  in
  (* Cumulative worker idle seconds for the heartbeat's idle fraction;
     only touched on wakeup, and only when monitoring is on. *)
  let idle_acc = Atomic.make 0. in
  let add_idle d =
    let rec go () =
      let cur = Atomic.get idle_acc in
      if not (Atomic.compare_and_set idle_acc cur (cur +. d)) then go ()
    in
    go ()
  in
  (* Which lease each worker is currently executing under — written by
     [begin_task], read for lease attribution of ledger deltas. *)
  let cur_lease = Array.make workers (-1) in
  let tiers =
    Two_tier.create
      ~policy:(Task_pool.policy_for coordination)
      ~slots:workers ()
  in
  (* Tasks queued or executing here (in a worker's pool or the
     overflow tier alike); 0 means the locality is drained (workers
     may only block, never spawn, at 0) — so lease retirement at
     quiescence stays exact even though queued tasks are invisible to
     the coordinator. *)
  let local_outstanding = Atomic.make 0 in
  let stop = Atomic.make false in
  (* Armed by a coordinator steal request that caught both tiers dry:
     the next locally-spawned task is spilled instead of queued. *)
  let global_hungry = Atomic.make false in

  (* Worker -> communicator outbox; only the communicator writes to the
     socket, so workers queue wire messages here. *)
  let out_mutex = Mutex.create () in
  let outbox : Wire.msg Queue.t = Queue.create () in
  let outbox_add m =
    Mutex.lock out_mutex;
    Queue.add m outbox;
    Mutex.unlock out_mutex
  in
  let outbox_take_all () =
    Mutex.lock out_mutex;
    let ms = List.of_seq (Queue.to_seq outbox) in
    Queue.clear outbox;
    Mutex.unlock out_mutex;
    ms
  in
  let outbox_is_empty () =
    Mutex.lock out_mutex;
    let e = Queue.is_empty outbox in
    Mutex.unlock out_mutex;
    e
  in

  (* Knowledge: a locality-local incumbent whose word the communicator
     also raises to the floor fed by coordinator bound broadcasts, so
     pruning sees the max of both. Only locally-submitted incumbents
     have a witness here, and [best_node] reads value and witness in
     one atomic load, a coherent pair for [Bound_update] frames. The
     floor itself is the communicator's alone. *)
  let knowledge = Knowledge.make_atomic () in
  let floor = ref min_int in
  (* Submit wrapper accounting applied incumbent improvements (floor
     raises are accounted by the communicator when it adopts a
     broadcast). *)
  let submit_acct w =
    Counters.accounted_submit counters ~slot:w ~recorder:recorders.(w)
      knowledge.Knowledge.submit
  in

  (* ------------- per-lease result ledger + worker views ------------- *)
  let lease_mutex = Mutex.create () in
  let locked f =
    Mutex.lock lease_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock lease_mutex) f
  in
  let views, ledger =
    match Ops.algebra p.Problem.kind with
    | Ops.Algebra alg ->
      let table = Hashtbl.create 64 in
      let scratch = Array.init workers (fun _ -> ref alg.Ops.empty) in
      let views =
        Array.init workers (fun w ->
            alg.Ops.view scratch.(w)
              { knowledge with Knowledge.submit = submit_acct w })
      in
      let register lease =
        locked (fun () ->
            if not (Hashtbl.mem table lease) then
              Hashtbl.replace table lease (ref alg.Ops.empty))
      in
      let end_task w =
        let d = !(scratch.(w)) in
        scratch.(w) := alg.Ops.empty;
        locked (fun () ->
            match Hashtbl.find_opt table cur_lease.(w) with
            | Some cell -> cell := alg.Ops.merge !cell d
            | None -> Hashtbl.replace table cur_lease.(w) (ref d))
      in
      let pending () = locked (fun () -> Hashtbl.length table > 0) in
      let retire () =
        locked (fun () ->
            let rs =
              Hashtbl.fold
                (fun id cell acc -> (id, alg.Ops.encode codec !cell) :: acc)
                table []
            in
            Hashtbl.reset table;
            rs)
      in
      (* The locality's overall best, an idempotent extra candidate for
         Optimise/Decide; an empty contribution for enumerations. *)
      let residual () =
        alg.Ops.encode codec (alg.Ops.of_best (knowledge.Knowledge.best_node ()))
      in
      (views, { register; end_task; pending; retire; residual })
  in
  let task_priority = Worker.task_priority ~coordination views in

  let enqueue_local ~slot r (task : n Task_pool.task) =
    Atomic.incr local_outstanding;
    Two_tier.enqueue tiers ~slot ~recorder:r
      ~priority:(task_priority task.Task_pool.node) task
  in
  let spill (task : n Task_pool.task) =
    outbox_add
      (Wire.Task
         {
           parent = task.Task_pool.tag;
           depth = task.Task_pool.depth;
           priority = task_priority task.Task_pool.node;
           payload = codec.Codec.encode task.Task_pool.node;
         })
  in
  (* The scheduler facet handed to the worker core: spawn destinations
     (local queue vs. spill upward), blocking acquisition (a dry pool
     does not end the search — more work may arrive over the wire, so
     workers sleep until the coordinator says otherwise), lease
     attribution, and the distributed hunger signal extending
     stack-stealing's local one. *)
  (* The idle hook feeds the heartbeat's idle fraction; hoisted so
     [take] allocates nothing per call. *)
  let on_idle = if monitored then Some add_idle else None in
  let scheduler =
    {
      Worker.enqueue =
        (fun ~slot r task ->
          if Atomic.compare_and_set global_hungry true false then spill task
          else enqueue_local ~slot r task);
      take =
        (fun ~slot ->
          Two_tier.take tiers ~slot ~recorder:recorders.(slot) ~stop ?on_idle ());
      finish = (fun () -> Atomic.decr local_outstanding);
      should_shed =
        (fun () -> Two_tier.hungry tiers || Atomic.get global_hungry);
      begin_task = (fun ~slot t -> cur_lease.(slot) <- t.Task_pool.tag);
      end_task = (fun ~slot -> ledger.end_task slot);
    }
  in
  let ctx =
    Worker.make_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders ~views ~scheduler ~tiers ~stop ()
  in

  (* ------------- communicator (the calling domain) ------------- *)
  let steal_inflight = ref false in
  let steal_sent_at = ref 0. in
  let comms_stats () = counters.(workers).Counters.stats in
  let last_bound_sent = ref min_int in
  let witness_sent = ref false in
  let failed_sent = ref false in
  let shutdown = ref false in
  let is_optimise =
    match p.Problem.kind with Problem.Optimise _ -> true | _ -> false
  in
  let decide_target =
    match p.Problem.kind with
    | Problem.Decide { target; _ } -> Some target
    | _ -> None
  in
  (* All outbound traffic funnels through here so chaos link delay
     applies uniformly. *)
  let send_out m =
    (match chaos with
    | Some c when c.Chaos.delay > 0. -> Unix.sleepf c.Chaos.delay
    | _ -> ());
    Transport.send conn m
  in

  let kill_at_lease =
    match chaos with Some c -> c.Chaos.kill_at_lease | None -> None
  in
  (* Coordinator task arrivals bypass the spawn accounting on purpose:
     the spiller already counted the task when it was spawned. *)
  let receive_task lease depth payload =
    (match kill_at_lease with
    | Some n when (comms_stats ()).Stats.steals + 1 >= n ->
      (* Chaos crash on the N-th lease: it is outstanding right now. *)
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    if !steal_inflight then begin
      steal_inflight := false;
      (* Wire-level steal latency: request sent to task in hand. *)
      Recorder.span comms_r Recorder.Steal ~span:lease ~start:!steal_sent_at
        ~value:depth
    end;
    let st = comms_stats () in
    st.Stats.steals <- st.Stats.steals + 1;
    ledger.register lease;
    (* Wire arrivals have no owning worker: they land in the ordered
       overflow tier (slot -1), never in a worker's own pool. *)
    enqueue_local ~slot:(-1) comms_r
      { Task_pool.tag = lease; node = codec.Codec.decode payload; depth }
  in
  (* The coordinator asked for work on behalf of a starving locality
     — the only way work leaves this locality: give back half of what
     both tiers queue, shallowest-first (the biggest subtrees), or arm
     the spill flag if nothing is queued. The shed and the quiescence
     check below both run on the communicator, and the spill is in the
     outbox before the next check, so a shed task is sent before its
     lease can retire. *)
  let shed_on_request () =
    match Two_tier.shed_half tiers with
    | [] -> Atomic.set global_hungry true
    | shed ->
      List.iter
        (fun t ->
          Atomic.decr local_outstanding;
          spill t)
        shed
  in
  let handle_msg = function
    | Wire.Steal_reply { task = Some (lease, depth, payload) } ->
      receive_task lease depth payload
    | Wire.Steal_reply { task = None } -> steal_inflight := false
    | Wire.Steal_request -> shed_on_request ()
    | Wire.Bound_update { value; witness = _ } ->
      if value > !floor then begin
        floor := value;
        Knowledge.adopt_floor knowledge value;
        (* Adopting a broadcast floor is an applied incumbent
           improvement here, even though it was found elsewhere; it has
           no tree position, and the communicator's slot notes no
           node, so the profile books it at depth 0. *)
        Counters.note_bound counters ~slot:workers;
        Recorder.instant comms_r Recorder.Bound ~span:0 ~value
      end
    | Wire.Ping -> send_out Wire.Pong
    | Wire.Shutdown ->
      shutdown := true;
      Worker.request_stop ctx
    (* Coordinator-bound messages — never sent to a locality — plus
       job-control frames that only mean something to the idle serve
       loop ([Job_start] mid-job is a protocol error; [Quit] is only
       sent to idle fleet members). *)
    | Wire.Task _ | Wire.Witness _ | Wire.Idle _ | Wire.Pong | Wire.Heartbeat _
    | Wire.Report _ | Wire.Failed _ | Wire.Job_start _ | Wire.Quit ->
      ()
  in
  let handle_inbound m =
    match chaos with
    | Some plan when Chaos.should_drop plan m -> ()
    | _ -> handle_msg m
  in
  let all_dropped () =
    Array.fold_left (fun acc r -> acc + Recorder.dropped r) 0 recorders
  in
  (* neg_infinity: the first tick always beats, so even sub-interval
     runs surface once in the coordinator's live registry. *)
  let last_heartbeat = ref neg_infinity in
  let maybe_heartbeat () =
    match heartbeat with
    | None -> ()
    | Some every ->
      let now = Recorder.clock () in
      if now -. !last_heartbeat >= every then begin
        last_heartbeat := now;
        let uptime = now -. started in
        let idle_frac =
          if uptime > 0. then
            Float.min 1.
              (Atomic.get idle_acc /. (float_of_int workers *. uptime))
          else 0.
        in
        send_out
          (Wire.Heartbeat
             {
               clock = now;
               tasks_done = Counters.tasks_done counters;
               pool_depth = Two_tier.queued tiers;
               idle_workers = Two_tier.idle_workers tiers;
               idle_frac;
               best = Knowledge.best_obj knowledge;
               trace_dropped = all_dropped ();
               nodes = Counters.total counters (fun s -> s.Stats.nodes);
               progress = Counters.progress_sample counters;
               events = drain ();
             })
      end
  in
  let communicator_tick () =
    (match kill_deadline with
    | Some t when Unix.gettimeofday () >= t ->
      (* Chaos crash: no cleanup, no goodbye frame — the coordinator
         must notice via EOF or heartbeat silence. *)
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    (match Transport.poll ~timeout:comm_tick [ conn ] with
    | [] -> ()
    | _ -> List.iter handle_inbound (Transport.pump conn));
    List.iter send_out (outbox_take_all ());
    (match Worker.failure ctx with
    | Some e when not !failed_sent ->
      failed_sent := true;
      send_out (Wire.Failed { message = Printexc.to_string e })
    | _ -> ());
    maybe_heartbeat ();
    (if is_optimise then
       match knowledge.Knowledge.best_node () with
       | Some (b, node) when b > !last_bound_sent && b > !floor ->
         last_bound_sent := b;
         send_out
           (Wire.Bound_update
              { value = b; witness = Some (codec.Codec.encode node) })
       | _ -> ());
    (match decide_target with
    | Some target when not !witness_sent -> (
      match knowledge.Knowledge.best_node () with
      | Some (value, node) when value >= target ->
        witness_sent := true;
        send_out
          (Wire.Witness { value; payload = codec.Codec.encode node })
      | _ -> ())
    | _ -> ());
    (* A lost steal reply (dropped frame, failed-over coordinator state)
       would otherwise leave us starving forever: time the request out
       and ask again. *)
    if
      !steal_inflight
      && Recorder.clock () -. !steal_sent_at > steal_retry
    then steal_inflight := false;
    if
      (not !steal_inflight)
      && (not (Atomic.get stop))
      && Two_tier.hungry tiers
    then begin
      steal_inflight := true;
      steal_sent_at := Recorder.clock ();
      let st = comms_stats () in
      st.Stats.steal_attempts <- st.Stats.steal_attempts + 1;
      send_out Wire.Steal_request
    end;
    (* Quiescence ack: ordering matters — outstanding is read before the
       outbox, so a last-instant spill is either seen queued (we skip
       this tick) or was already flushed above. Retiring only at full
       quiescence guarantees every spill of a retired lease was sent
       (FIFO) before the retirement. *)
    if
      Atomic.get local_outstanding = 0
      && outbox_is_empty ()
      && ledger.pending ()
    then send_out (Wire.Idle { retired = ledger.retire () })
  in
  let rec loop () =
    if not !shutdown then begin
      communicator_tick ();
      loop ()
    end
  in
  (* Coordinator death (Transport.Closed) or a transport error escapes
     [loop]: [Worker.run] stops and joins the domains and re-raises, so
     the process exits nonzero. A worker exception was already reported
     through the [Failed] frame; the Report below still ships so the
     coordinator's accounting stays whole. *)
  ignore (Worker.run ctx ~workers ~beside:loop () : exn option);
  (* Report: residual result, counters and the last events, in one
     frame. Results flow primarily through per-lease deltas; the
     residual is an extra idempotent candidate for Optimise/Decide (the
     locality's overall best pair). The drop count is appended after
     the last drain, so it can never be lost itself. *)
  let stats = Stats.create () in
  Counters.fold_into counters ~dropped:(all_dropped ()) stats;
  let events = drain () in
  let events =
    match all_dropped () with
    | 0 -> events
    | n -> events @ [ Journal.event ~value:n ~ev:"journal_drop" ~span:0 () ]
  in
  send_out
    (Wire.Report
       {
         residual = Some (ledger.residual ());
         stats;
         clock = Recorder.clock ();
         events;
       })

let serve ~conn ~resolve =
  (* Persistent fleet member of the job server: sit idle between jobs,
     run one job at a time on this connection, exit only on [Quit] (or
     when the daemon vanishes — EOF). An in-job [Shutdown] ends the job
     inside [run] and drops us back here; a [Shutdown] seen while idle
     is the tail of an already-finished job (e.g. the cleanup broadcast
     after a resolve failure) and is ignored, as are stale in-job
     frames such as late bound updates. *)
  let quit = ref false in
  try
    while not !quit do
      match Transport.recv conn with
      | Wire.Job_start { instance; skeleton; job } -> (
        match resolve ~instance ~skeleton ~job with
        | Ok run_job -> run_job ()
        | Error message ->
          (* Fail the job but keep the coordinator's accounting whole:
             it counts a locality done only once its Report arrives. *)
          Transport.send conn (Wire.Failed { message });
          Transport.send conn
            (Wire.Report
               {
                 residual = None;
                 stats = Stats.create ();
                 clock = Recorder.clock ();
                 events = [];
               }))
      | Wire.Ping -> Transport.send conn Wire.Pong
      | Wire.Quit -> quit := true
      | _ -> ()
    done
  with Transport.Closed -> ()
