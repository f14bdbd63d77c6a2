module Stats = Yewpar_core.Stats
module Http_export = Yewpar_telemetry.Http_export
module Live = Yewpar_telemetry.Live
module Analyze = Yewpar_telemetry.Analyze
module Journal = Yewpar_telemetry.Journal
module Telemetry = Yewpar_telemetry.Telemetry
module Est = Yewpar_core.Progress
module Track = Yewpar_telemetry.Progress

type outcome = {
  deltas : string list;
  residuals : string list;
  witness : (int * string) option;
  stats : Stats.t;
  broadcasts : int;
  failure : string option;
  dead : bool array;
  abandoned : bool;
}

type progress = {
  p_tasks_done : int;
  p_pool_depth : int;
  p_outstanding : int;
  p_best : int;
  p_alive : int;
  p_nodes : int;
  p_est_total : float;
  p_fraction : float;
  p_rate : float;
  p_eta : float;
}

(* One coordinator-issued task: everything needed to replay it if its
   holder dies before retiring it. *)
type lease = {
  lease_parent : int;  (* parent lease id, -1 for the root *)
  lease_depth : int;
  lease_priority : int;
  lease_payload : string;
  holder : int;
  issued_at : float;
}

(* The latest heartbeat from one locality, as an immutable record so
   the HTTP server domain can read a whole snapshot through a single
   pointer load while the event loop keeps replacing it. *)
type live = {
  at : float;  (** Coordinator clock at receipt. *)
  tasks_done : int;
  pool_depth : int;
  idle_workers : int;
  idle_frac : float;
  best : int;
  trace_dropped : int;
  nodes : int;
  psample : Est.sample;
      (** Cumulative estimator columns: replaced wholesale on every
          heartbeat, so fusion (summing the latest sample of each live
          locality) never double-counts. *)
}

(* Grace period after a watchdog-triggered shutdown before collection is
   abandoned and stragglers are left for the caller to kill. *)
let watchdog_grace = 5.0

(* A locality that cannot drain one frame for this long is wedged;
   treat the send timeout like a death. *)
let send_timeout = 5.0

let run ?watchdog ?monitor_port ?on_monitor ?failure_timeout ?lease_timeout
    ?(standby_from = max_int) ?(pool_policy = Yewpar_core.Workpool.Depth)
    ?cancelled ?on_progress ?journal ?telemetry ?trace ?label ~heartbeat
    ~started ~conns ~root_payload () =
  let l = Array.length conns in
  let standby_from = min standby_from l in
  let failure_timeout =
    match failure_timeout with Some t when t > 0. -> Some t | _ -> None
  in
  let lease_timeout =
    match lease_timeout with Some t when t > 0. -> Some t | _ -> None
  in
  let pool = Pool.create ~policy:pool_policy () in
  (* ---- the lease forest ----
     [outstanding]: issued, unretired. [retired]: id -> result delta.
     [revoked]: ids whose subtree coverage was voided (dead holder, or
     descendant of a replayed lease) — late retirements and spills
     naming them are discarded. [parent_of] keeps every edge forever so
     revocation can walk ancestor chains through any state. *)
  let outstanding : (int, lease) Hashtbl.t = Hashtbl.create 64 in
  let retired : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let revoked : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let parent_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 1 in
  let fresh_task ~parent ~depth ~priority ~payload =
    let id = !next_id in
    incr next_id;
    if parent >= 0 then Hashtbl.replace parent_of id parent;
    { Pool.id; parent; depth; priority; payload }
  in
  (* The root's heuristic value is unknown here (the coordinator never
     decodes nodes); 0 is fine — it is the only task in the pool. *)
  Pool.push pool
    (fresh_task ~parent:(-1) ~depth:0 ~priority:0 ~payload:root_payload);
  let hungry = Array.make l false in
  let shed_inflight = Array.make l false in
  let alive = Array.make l true in
  let standby = Array.init l (fun i -> i >= standby_from) in
  let eligible i = alive.(i) && not standby.(i) in
  (* Each locality's final [Report] (residual, stats): it is done once
     this arrives or it dies. *)
  let reports : (string option * Stats.t) option array = Array.make l None in
  let failure = ref None in
  let global_best = ref min_int in
  (* Best (value, encoded node) the coordinator holds — fed by
     Bound_update witnesses and Decide Witness frames, so the answer
     survives its finder's death. *)
  let witness : (int * string) option ref = ref None in
  let note_witness v payload =
    match !witness with
    | Some (bv, _) when bv >= v -> ()
    | _ -> witness := Some (v, payload)
  in
  let broadcasts = ref 0 in
  let shutdown_sent = ref false in
  let shed_rr = ref 0 in
  let last_rx = Array.make l started in
  let last_ping = Array.make l started in
  (* Fault counters, surfaced in the outcome stats / gauges / status. *)
  let lost = ref 0 in
  let reissued = ref 0 in
  let respawns = ref 0 in

  (* ---------------- live monitoring (--monitor-port) --------------
     Latest heartbeat per locality: an immutable record behind one
     pointer, so the monitor's HTTP domain reads it untorn. *)
  let live : live option array = Array.make l None in
  let heartbeats = ref 0 in
  (* ---- fused progress estimate ----
     Sum the latest cumulative sample of every locality still alive:
     replace-on-update means stolen work is never counted twice, and
     dropping dead localities' samples keeps a chaos replay exact —
     the survivors re-observe the revoked subtrees exactly once. The
     tracker makes the reported fraction monotone and smooths the
     rate. *)
  let ptracker = Track.create () in
  let last_report = ref Track.idle in
  let last_psample_jot = ref neg_infinity in
  let fused_sample () =
    let acc = ref Est.empty in
    Array.iteri
      (fun i hb ->
        match hb with
        | Some h when alive.(i) -> acc := Est.merge !acc h.psample
        | _ -> ())
      live;
    !acc
  in
  let sum f =
    Array.fold_left (fun a -> function Some h -> a + f h | None -> a) 0 live
  in
  let tasks_finished () = sum (fun h -> h.tasks_done) in
  let local_queued () = sum (fun h -> h.pool_depth) in
  let alive_count () =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive
  in
  let active_count () = Pool.size pool + Hashtbl.length outstanding in
  let best_seen () =
    Array.fold_left
      (fun a -> function Some h -> max a h.best | None -> a)
      !global_best live
  in
  let idle_frac () =
    match List.filter_map Fun.id (Array.to_list live) with
    | [] -> 0.
    | hs ->
      List.fold_left (fun a h -> a +. h.idle_frac) 0. hs
      /. float_of_int (List.length hs)
  in
  (* The per-locality rows a label-less gauge cannot carry; [localities]
     here is the fleet size, where the gauge of that name (the [alive]
     key) counts connected localities. *)
  let locality_rows () =
    let open Analyze in
    let now = Unix.gettimeofday () in
    let num v = Num (float_of_int v) in
    let row i =
      [
        ("id", num i); ("alive", Bool alive.(i)); ("standby", Bool standby.(i));
      ]
      @
      match live.(i) with
      | None -> []
      | Some h ->
        [
          ("age", Num (now -. h.at));
          ("tasks_done", num h.tasks_done);
          ("pool_depth", num h.pool_depth);
          ("idle_workers", num h.idle_workers);
          ("idle_frac", Num h.idle_frac);
          ("best", if h.best > min_int then num h.best else Null);
          ("trace_dropped", num h.trace_dropped);
          ("nodes", num h.nodes);
        ]
    in
    [
      ("localities", num l);
      ("locality", Arr (List.init l (fun i -> Obj (row i))));
    ]
  in
  let server =
    Option.map
      (fun port ->
        let count name help r = Live.int name help (fun () -> !r) in
        let s =
          Live.start ~port ~runtime:"dist" ~started
            ~progress:(fun () -> !last_report)
            ~extra:locality_rows
            Live.
              [
                int ~key:"alive" "localities" "Localities still connected"
                  alive_count;
                int "tasks_done" "Tasks finished, summed over localities"
                  tasks_finished;
                int "pool_depth" "Locally queued tasks, summed over localities"
                  local_queued;
                int "dist_pool_depth"
                  "Tasks queued in the coordinator's distributed pool"
                  (fun () -> Pool.size pool);
                int "active_tasks"
                  "Queued plus outstanding leases (the termination detector)"
                  active_count;
                int "outstanding_leases" "Leases issued and not yet retired"
                  (fun () -> Hashtbl.length outstanding);
                int "idle_workers"
                  "Workers blocked waiting for work, cluster-wide" (fun () ->
                    sum (fun h -> h.idle_workers));
                float "idle_frac" "Mean reported per-locality idle fraction"
                  idle_frac;
                incumbent "best"
                  "Best incumbent objective seen by the coordinator" best_seen;
                incumbent "global_best"
                  "Best objective the coordinator has broadcast" (fun () ->
                    !global_best);
                count "bound_broadcasts" "Bound-update messages fanned out"
                  broadcasts;
                int "trace_dropped"
                  "Trace spans dropped by full ring buffers, cluster-wide"
                  (fun () -> sum (fun h -> h.trace_dropped));
                count "heartbeats" "Heartbeat frames received" heartbeats;
                count "localities_lost"
                  "Localities declared dead during the run" lost;
                count "leases_reissued"
                  "Task leases revoked from dead holders and replayed" reissued;
                count "respawns" "Standby localities promoted after a death"
                  respawns;
              ]
        in
        Option.iter (fun f -> f (Http_export.port s)) on_monitor;
        s)
      monitor_port
  in

  (* Under the job server many coordinators interleave on one daemon's
     output: [label] ("job N") prefixes failures so they stay
     attributable. *)
  let label_prefix = match label with Some lb -> lb ^ ": " | None -> "" in
  let fail msg = if !failure = None then failure := Some (label_prefix ^ msg) in

  (* ---------------------- the causal journal ----------------------
     Span ids are lease ids; span 0 is the job itself. Coordinator-side
     events are written directly; locality events arrive staged in
     Heartbeat/Report frames and get the sender's index and clock
     offset stamped here. *)
  let trace =
    match trace with
    | Some t -> t
    | None -> (
      match journal with Some w -> Journal.trace w | None -> "run")
  in
  let jot ?parent ?locality ?worker ?t ?dur ?value ?note ev span =
    match journal with
    | None -> ()
    | Some w ->
      Journal.write w ~trace
        [ Journal.event ?parent ?locality ?worker ?t ?dur ?value ?note ~ev ~span () ]
  in
  (* Locality events: the clock-offset estimate is our clock at receipt
     minus the clock sampled when the frame was built — an upper bound
     off by the frame's transit time. *)
  let keep_events i ~clock events =
    if events <> [] then begin
      let offset = Unix.gettimeofday () -. clock in
      let events =
        List.map
          (fun (e : Journal.event) ->
            if e.Journal.locality < 0 then { e with Journal.locality = i } else e)
          events
      in
      Option.iter (fun w -> Journal.write w ~trace ~offset events) journal;
      Option.iter
        (fun tl -> Telemetry.ingest tl ~locality:i ~offset events)
        telemetry
    end
  in
  jot "job_start" 0 ~t:started ~note:(Option.value label ~default:"");

  (* Death handling is (carefully) reentrant with [send]: [alive] flips
     first, so a send failure discovered while notifying survivors just
     queues another death. *)
  let rec send i m =
    if alive.(i) then
      try Transport.send ~timeout:send_timeout conns.(i) m
      with Transport.Closed | Transport.Timeout ->
        on_death i ~reason:"connection lost"

  and broadcast_shutdown () =
    if not !shutdown_sent then begin
      shutdown_sent := true;
      for i = 0 to l - 1 do
        send i Wire.Shutdown
      done
    end

  (* Revoke the coverage of [roots] (outstanding leases about to be
     replayed) and of every descendant lease, wherever it lives:
     queued tasks are dropped, outstanding leases voided (a live
     holder's late retirement will be ignored), retired deltas
     excluded from the final fold. Then each root whose parent
     survives is replayed under a fresh id — fresh so a zombie
     holder's late frames can never be confused with the replay. *)
  and revoke_forest roots =
    let root_set = Hashtbl.create 16 in
    List.iter (fun (id, _) -> Hashtbl.replace root_set id ()) roots;
    let memo = Hashtbl.create 64 in
    let rec doomed id =
      match Hashtbl.find_opt memo id with
      | Some d -> d
      | None ->
        let d =
          Hashtbl.mem root_set id
          ||
          match Hashtbl.find_opt parent_of id with
          | Some pid -> doomed pid
          | None -> false
        in
        Hashtbl.replace memo id d;
        d
    in
    let dropped = Pool.remove_by pool (fun t -> doomed t.Pool.id) in
    List.iter
      (fun t ->
        Hashtbl.replace revoked t.Pool.id ();
        jot "lease_revoke" t.Pool.id ~note:"queued")
      dropped;
    let doomed_out =
      Hashtbl.fold
        (fun id lease acc -> if doomed id then (id, lease) :: acc else acc)
        outstanding []
    in
    (* A root is revoked for its own holder's sake ("outstanding"); a
       descendant outstanding at another holder only because an
       ancestor was revoked is told apart ("descendant"). *)
    List.iter
      (fun (id, lease) ->
        Hashtbl.remove outstanding id;
        Hashtbl.replace revoked id ();
        jot "lease_revoke" id ~locality:lease.holder
          ~note:(if Hashtbl.mem root_set id then "outstanding" else "descendant"))
      doomed_out;
    let doomed_ret =
      Hashtbl.fold
        (fun id _ acc -> if doomed id then id :: acc else acc)
        retired []
    in
    List.iter
      (fun id ->
        Hashtbl.remove retired id;
        Hashtbl.replace revoked id ();
        jot "lease_revoke" id ~note:"retired")
      doomed_ret;
    List.iter
      (fun (id, lease) ->
        let parent = lease.lease_parent in
        (* A root whose parent is itself doomed is re-covered by the
           parent's replay; reissuing it too would double-count. *)
        if parent < 0 || not (doomed parent) then begin
          incr reissued;
          let t =
            fresh_task ~parent ~depth:lease.lease_depth
              ~priority:lease.lease_priority ~payload:lease.lease_payload
          in
          (* The replay's causal parent is the revoked original, not
             the lease-forest parent: the journal keeps the failed
             attempt and its redo chained together. *)
          jot "lease_replay" t.Pool.id ~parent:id ~locality:lease.holder;
          Pool.push pool t
        end)
      roots

  and promote_spare () =
    let chosen = ref (-1) in
    for j = 0 to l - 1 do
      if !chosen < 0 && alive.(j) && standby.(j) then chosen := j
    done;
    if !chosen >= 0 then begin
      standby.(!chosen) <- false;
      incr respawns;
      jot "respawn" 0 ~locality:!chosen;
      if !global_best > min_int then begin
        send !chosen (Wire.Bound_update { value = !global_best; witness = None });
        incr broadcasts
      end
    end

  and on_death i ~reason =
    if alive.(i) then begin
      alive.(i) <- false;
      (* Fence: stop reading a possibly-still-breathing zombie so its
         late frames cannot race the replay. *)
      (try Transport.close conns.(i) with _ -> ());
      hungry.(i) <- false;
      shed_inflight.(i) <- false;
      if not !shutdown_sent then begin
        incr lost;
        jot "locality_dead" 0 ~locality:i ~note:reason;
        if not standby.(i) then begin
          let held =
            Hashtbl.fold
              (fun id lease acc ->
                if lease.holder = i then (id, lease) :: acc else acc)
              outstanding []
          in
          revoke_forest held;
          promote_spare ();
          (* Rebroadcast the incumbent floor: replayed work must prune
             as hard as the work it replaces. *)
          if !global_best > min_int then
            for j = 0 to l - 1 do
              if eligible j then begin
                send j (Wire.Bound_update { value = !global_best; witness = None });
                incr broadcasts
              end
            done;
          let any_eligible = ref false in
          for j = 0 to l - 1 do
            if eligible j then any_eligible := true
          done;
          if not !any_eligible then begin
            fail
              (Printf.sprintf
                 "all localities lost (last: locality %d, %s)" i reason);
            broadcast_shutdown ()
          end
        end
      end
    end
  in

  let serve i =
    match Pool.pop pool with
    | Some t ->
      hungry.(i) <- false;
      Hashtbl.replace outstanding t.Pool.id
        {
          lease_parent = t.Pool.parent;
          lease_depth = t.Pool.depth;
          lease_priority = t.Pool.priority;
          lease_payload = t.Pool.payload;
          holder = i;
          issued_at = Unix.gettimeofday ();
        };
      jot "lease_issue" t.Pool.id ~parent:(max t.Pool.parent 0) ~locality:i;
      send i
        (Wire.Steal_reply { task = Some (t.Pool.id, t.Pool.depth, t.Pool.payload) })
    | None -> hungry.(i) <- true
  in
  let serve_hungry () =
    for i = 0 to l - 1 do
      if hungry.(i) && eligible i && Pool.size pool > 0 then serve i
    done
  in
  (* Someone is starving and the pool is dry: ask one busy locality (in
     round-robin, one request in flight each) to shed queued work. *)
  let request_shed () =
    let starving = ref false in
    for i = 0 to l - 1 do
      if hungry.(i) && eligible i then starving := true
    done;
    if (not !shutdown_sent) && Pool.size pool = 0 && !starving then begin
      let chosen = ref (-1) in
      for k = 0 to l - 1 do
        let i = (!shed_rr + k) mod l in
        if !chosen < 0 && eligible i && (not hungry.(i)) && not shed_inflight.(i)
        then chosen := i
      done;
      if !chosen >= 0 then begin
        shed_inflight.(!chosen) <- true;
        send !chosen Wire.Steal_request;
        shed_rr := !chosen + 1
      end
    end
  in
  let handle i = function
    | Wire.Task { parent; depth; priority; payload } ->
      shed_inflight.(i) <- false;
      (* A spill whose parent lease was revoked describes work already
         re-covered by the replay of a dead ancestor: drop it. *)
      if not (Hashtbl.mem revoked parent) then begin
        let t = fresh_task ~parent ~depth ~priority ~payload in
        jot "spill" t.Pool.id ~parent:(max parent 0) ~locality:i;
        Pool.push pool t
      end
    | Wire.Steal_request ->
      if standby.(i) then hungry.(i) <- true else serve i
    | Wire.Idle { retired = rs } ->
      shed_inflight.(i) <- false;
      List.iter
        (fun (id, delta) ->
          if not (Hashtbl.mem revoked id) then
            match Hashtbl.find_opt outstanding id with
            | Some lease when lease.holder = i ->
              Hashtbl.remove outstanding id;
              Hashtbl.replace retired id delta;
              jot "lease_retire" id ~locality:i
                ~dur:(Unix.gettimeofday () -. lease.issued_at)
            | Some _ | None -> ())
        rs
    | Wire.Bound_update { value; witness = w } ->
      (match w with Some payload -> note_witness value payload | None -> ());
      if value > !global_best then begin
        global_best := value;
        jot "bound" 0 ~locality:i ~value;
        for j = 0 to l - 1 do
          if j <> i && eligible j then begin
            send j (Wire.Bound_update { value; witness = None });
            incr broadcasts
          end
        done
      end
    | Wire.Witness { value; payload } ->
      note_witness value payload;
      jot "witness" 0 ~locality:i ~value;
      broadcast_shutdown ()
    | Wire.Heartbeat
        {
          clock;
          tasks_done;
          pool_depth;
          idle_workers;
          idle_frac;
          best;
          trace_dropped;
          nodes;
          progress = psample;
          events;
        } ->
      keep_events i ~clock events;
      let now = Unix.gettimeofday () in
      live.(i) <-
        Some
          {
            at = now;
            tasks_done;
            pool_depth;
            idle_workers;
            idle_frac;
            best;
            trace_dropped;
            nodes;
            psample;
          };
      incr heartbeats
    | Wire.Failed { message } ->
      fail message;
      broadcast_shutdown ()
    | Wire.Report { residual; stats; clock; events } ->
      keep_events i ~clock events;
      reports.(i) <- Some (residual, stats)
    (* Locality-bound messages; never sent to the coordinator. [Pong]
       matters only for the liveness clock, refreshed on any frame. *)
    | Wire.Pong | Wire.Ping | Wire.Steal_reply _ | Wire.Shutdown
    | Wire.Job_start _ | Wire.Quit ->
      ()
  in
  (* Progress is re-estimated on this clock, at most once per heartbeat
     period and only after a heartbeat has arrived since the last
     estimate, from each locality's latest sample. An estimate then
     spans about one heartbeat of every locality, so two heartbeats
     landing a millisecond apart cannot pass one locality's whole delta
     off as a millisecond's work. The first heartbeat is estimated at
     once, so even a sub-period job reports progress. *)
  let last_tick = ref neg_infinity and ticked_at = ref 0 in
  let progress_tick () =
    let now = Unix.gettimeofday () in
    if !heartbeats > !ticked_at && now -. !last_tick >= heartbeat then begin
      last_tick := now;
      ticked_at := !heartbeats;
      last_report := Track.update ptracker ~now (fused_sample ());
      (match journal with
      | Some _ when now -. !last_psample_jot >= 1.0 ->
        last_psample_jot := now;
        jot "progress_sample" 0
          ~value:(Track.journal_value !last_report)
          ~note:(Track.journal_note !last_report)
      | _ -> ());
      match on_progress with
      | None -> ()
      | Some f ->
        let r = !last_report in
        f
          {
            p_tasks_done = tasks_finished ();
            p_pool_depth = Pool.size pool + local_queued ();
            p_outstanding = Hashtbl.length outstanding;
            p_best = best_seen ();
            p_alive = alive_count ();
            p_nodes = r.Track.r_nodes;
            p_est_total = r.Track.r_total;
            p_fraction = r.Track.r_fraction;
            p_rate = r.Track.r_rate;
            p_eta = r.Track.r_eta;
          }
    end
  in
  let locality_done i = (not alive.(i)) || reports.(i) <> None in
  let all_done () =
    let d = ref true in
    for i = 0 to l - 1 do
      if not (locality_done i) then d := false
    done;
    !d
  in
  let watchdog_fired = ref false in
  let overdue grace =
    match watchdog with
    | None -> false
    | Some limit -> Unix.gettimeofday () -. started > limit +. grace
  in
  let heartbeat_ages now =
    String.concat " "
      (List.init l (fun i ->
           if not alive.(i) then Printf.sprintf "%d:dead" i
           else Printf.sprintf "%d:%.1fs" i (now -. last_rx.(i))))
  in
  (* Liveness: ping a silent locality, declare it dead past the
     timeout. Sockets catch outright crashes instantly via EOF; the
     timeout catches wedged-but-connected processes. *)
  let check_liveness () =
    match failure_timeout with
    | None -> ()
    | Some ft ->
      if not !shutdown_sent then begin
        let now = Unix.gettimeofday () in
        let ping_after = ft /. 3. in
        for i = 0 to l - 1 do
          if alive.(i) then
            if now -. last_rx.(i) > ft then
              on_death i
                ~reason:
                  (Printf.sprintf "silent for %.1fs (timeout %.1fs)"
                     (now -. last_rx.(i)) ft)
            else if
              now -. last_rx.(i) > ping_after
              && now -. last_ping.(i) > ping_after
            then begin
              last_ping.(i) <- now;
              send i Wire.Ping
            end
        done
      end
  in
  let last_lease_scan = ref started in
  let check_lease_timeouts () =
    match lease_timeout with
    | None -> ()
    | Some lt ->
      if not !shutdown_sent then begin
        let now = Unix.gettimeofday () in
        if now -. !last_lease_scan > lt /. 4. then begin
          last_lease_scan := now;
          let expired =
            Hashtbl.fold
              (fun id lease acc ->
                if now -. lease.issued_at > lt then (id, lease) :: acc else acc)
              outstanding []
          in
          if expired <> [] then revoke_forest expired
        end
      end
  in

  let abandoned = ref false in
  Fun.protect
    ~finally:(fun () -> Option.iter Http_export.stop server)
  @@ fun () ->
  while (not (all_done ())) && not !abandoned do
    let live_conns = ref [] in
    for i = l - 1 downto 0 do
      if alive.(i) then live_conns := (i, conns.(i)) :: !live_conns
    done;
    let readable = Transport.poll ~timeout:0.005 (List.map snd !live_conns) in
    (* [alive] is re-read per connection: handling one locality's
       frames can declare another dead and close its socket. *)
    List.iter
      (fun (i, c) ->
        if alive.(i) && List.memq c readable then
          match Transport.pump c with
          | msgs ->
            if msgs <> [] then last_rx.(i) <- Unix.gettimeofday ();
            List.iter (handle i) msgs
          | exception Transport.Closed ->
            on_death i ~reason:"socket closed")
      !live_conns;
    (* External cancellation (job server DELETE, CLI signal): behaves
       like a failure — broadcast Shutdown so every locality stops and
       reports, then collect as usual. Outstanding leases die with this
       coordinator invocation; the caller decides what "cancelled"
       means. *)
    (match cancelled with
    | Some f when not !shutdown_sent -> (
      match f () with
      | Some reason ->
        fail reason;
        broadcast_shutdown ()
      | None -> ())
    | _ -> ());
    progress_tick ();
    check_liveness ();
    check_lease_timeouts ();
    serve_hungry ();
    request_shed ();
    if (not !shutdown_sent) && Pool.size pool = 0
       && Hashtbl.length outstanding = 0
    then broadcast_shutdown ();
    if (not !watchdog_fired) && overdue 0. then begin
      watchdog_fired := true;
      let now = Unix.gettimeofday () in
      fail
        (Printf.sprintf
           "watchdog expired after %.1fs (limit %.1fs); active_tasks=%d \
            per-locality last-heartbeat ages: %s"
           (now -. started)
           (Option.value watchdog ~default:0.)
           (active_count ()) (heartbeat_ages now));
      broadcast_shutdown ()
    end;
    if !watchdog_fired && overdue watchdog_grace then abandoned := true
  done;

  let stats = Stats.create () in
  Array.iter
    (function Some (_, st) -> Stats.add stats st | None -> ())
    reports;
  stats.Stats.localities_lost <- !lost;
  stats.Stats.leases_reissued <- !reissued;
  stats.Stats.respawns <- !respawns;
  (* Final progress sample: built from the merged stats profile (dead
     localities never ship their Report; their retired leases'
     tallies are lost, so the raw chain may not re-close after a
     crash), clamped final — the termination detector is ground truth,
     so the fraction lands at exactly 1.0 unless the run failed
     outright. *)
  (match journal with
  | Some _ ->
    let final = !failure = None in
    let r =
      Track.update ptracker ~final
        ~now:(Unix.gettimeofday ())
        (Est.of_profile stats.Stats.depths)
    in
    last_report := r;
    jot "progress_sample" 0 ~value:(Track.journal_value r)
      ~note:(Track.journal_note r)
  | None -> ());
  jot "job_done" 0
    ~dur:(Unix.gettimeofday () -. started)
    ~note:(Option.value !failure ~default:"");
  let deltas = Hashtbl.fold (fun _ delta acc -> delta :: acc) retired [] in
  let residuals =
    Array.to_list reports
    |> List.filter_map (function Some (r, _) -> r | None -> None)
  in
  { deltas; residuals; witness = !witness; stats; broadcasts = !broadcasts;
    failure = !failure;
    dead = Array.map not alive; abandoned = !abandoned }
