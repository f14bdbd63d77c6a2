module Engine = Yewpar_core.Engine
module Ops = Yewpar_core.Ops
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Depth_profile = Yewpar_core.Depth_profile
module Stats = Yewpar_core.Stats
module Recorder = Yewpar_telemetry.Recorder
module Splitmix = Yewpar_util.Splitmix

type 'n scheduler = {
  enqueue : slot:int -> Recorder.t -> 'n Task_pool.task -> unit;
  take : slot:int -> 'n Task_pool.task option;
  finish : unit -> unit;
  should_shed : unit -> bool;
  begin_task : slot:int -> 'n Task_pool.task -> unit;
  end_task : slot:int -> unit;
}

(* A slot's current task. The engine record is recycled across tasks
   ([Engine.restart]), so steady-state execution allocates one engine
   per slot, not one per task. *)
type ('s, 'n) slot = {
  mutable engine : ('s, 'n) Engine.t option;
  mutable live : bool;  (* the engine has a started task with steps left *)
  mutable tag : int;
  mutable root_depth : int;
  mutable started : float;
  mutable last_bt : int;  (* backtracks already answered by a Budget shed *)
  mutable rng : Splitmix.gen option;  (* the task's Random_spawn stream *)
}

let new_slot () =
  { engine = None; live = false; tag = 0; root_depth = 0; started = 0.;
    last_bt = 0; rng = None }

type 'n domains = { scheduler : 'n scheduler; tiers : 'n Two_tier.t }

type ('s, 'n, 'd) ctx = {
  space : 's;
  children : ('s, 'n) Problem.generator;
  coordination : Coordination.t;
  counters : Counters.t;
  recorders : Recorder.t array;
  views : 'n Ops.view array;
  enqueue : slot:int -> Recorder.t -> 'n Task_pool.task -> unit;
  should_shed : slot:int -> bool;
  stop : bool Atomic.t;
  slots : ('s, 'n) slot array;
  domains : 'd;
}

let make_step_ctx ~space ~children ~coordination ~counters ~recorders ~views
    ~enqueue ~should_shed ~stop () =
  { space; children; coordination; counters; recorders; views; enqueue;
    should_shed; stop;
    slots = Array.init (Array.length views) (fun _ -> new_slot ());
    domains = () }

let make_ctx ~space ~children ~coordination ~counters ~recorders ~views
    ~(scheduler : _ scheduler) ~tiers ~stop () =
  let should_shed ~slot:_ = scheduler.should_shed () in
  {
    (make_step_ctx ~space ~children ~coordination ~counters ~recorders ~views
       ~enqueue:scheduler.enqueue ~should_shed ~stop ())
    with
    domains = { scheduler; tiers };
  }

let task_priority ~coordination (views : _ Ops.view array) =
  match coordination with
  | Coordination.Best_first _ -> (views.(0)).Ops.priority
  | Coordination.Sequential | Coordination.Depth_bounded _
  | Coordination.Stack_stealing _ | Coordination.Budget _
  | Coordination.Random_spawn _ | Coordination.Ordered _ ->
    fun _ -> 0

let request_stop ctx =
  Atomic.set ctx.stop true;
  Two_tier.broadcast ctx.domains.tiers

let stats ctx ~slot = ctx.counters.(slot).Counters.stats

let note_prune ctx ~slot depth =
  let st = stats ctx ~slot in
  st.Stats.pruned <- st.Stats.pruned + 1;
  Depth_profile.note_prune st.Stats.depths depth

let spawn ctx ~slot task =
  Counters.note_spawn ctx.counters ~slot task.Task_pool.depth;
  ctx.enqueue ~slot ctx.recorders.(slot) task

(* Splits hand children the engine would have reached to other tasks,
   so each split applies the engine's rules to what it takes: a child
   failing [keep] counts one prune and, under [prune_siblings], cuts
   its remaining siblings, exactly as [Engine.run] would have done on
   reaching it. Kept children are credited back to the donor frame
   ([Engine.credit_kept]), so the completion noted when the frame is
   left reports the node's true committed-children count — the
   tree-size estimator's closed-stratum rule depends on it. Each split returns
   whether it took a node. *)
let split_chunk ctx ~slot (view : 'n Ops.view) ~tag e =
  let cs, depth = Engine.split_lowest e in
  let rec go kept = function
    | [] -> kept
    | c :: rest ->
      if view.Ops.keep c then begin
        spawn ctx ~slot { Task_pool.tag; node = c; depth };
        go (kept + 1) rest
      end
      else begin
        note_prune ctx ~slot depth;
        if view.Ops.prune_siblings then kept else go kept rest
      end
  in
  Engine.credit_kept e ~depth:(depth - 1) ~n:(go 0 cs);
  cs <> []

let split_one ctx ~slot (view : 'n Ops.view) ~tag e =
  match Engine.split_one e with
  | Some (node, depth) ->
    if view.Ops.keep node then begin
      Engine.credit_kept e ~depth:(depth - 1) ~n:1;
      spawn ctx ~slot { Task_pool.tag; node; depth }
    end
    else begin
      note_prune ctx ~slot depth;
      if view.Ops.prune_siblings then Engine.cut_rest e ~depth:(depth - 1)
    end;
    true
  | None -> false

(* Stack-Stealing work pushing: while the scheduler reports hunger,
   split off work (a chunk or a node per round) until the hunger is
   answered or nothing is left to split. *)
let rec shed_to_thieves ctx ~slot view ~chunked ~tag e =
  if
    ctx.should_shed ~slot
    && (if chunked then split_chunk ctx ~slot view ~tag e
        else split_one ctx ~slot view ~tag e)
  then shed_to_thieves ctx ~slot view ~chunked ~tag e

let end_span ctx ~slot s =
  Recorder.span ctx.recorders.(slot) Recorder.Task ~span:s.tag
    ~start:s.started ~value:s.root_depth

let running ctx ~slot = ctx.slots.(slot).live

let start_task ctx ~slot (task : 'n Task_pool.task) =
  let s = ctx.slots.(slot) in
  let st = stats ctx ~slot in
  let prof = st.Stats.depths in
  let view = ctx.views.(slot) in
  let tag = task.Task_pool.tag and depth = task.Task_pool.depth in
  s.live <- false;
  s.tag <- tag;
  s.root_depth <- depth;
  s.started <- Recorder.now ctx.recorders.(slot);
  let units =
    if not (view.Ops.keep task.Task_pool.node) then begin
      note_prune ctx ~slot depth;
      0
    end
    else begin
      st.Stats.nodes <- st.Stats.nodes + 1;
      Depth_profile.note_node prof depth;
      if not (view.Ops.process task.Task_pool.node) then begin
        Atomic.set ctx.stop true;
        1
      end
      else
        match ctx.coordination with
        | ( Coordination.Depth_bounded { dcutoff }
          | Coordination.Best_first { dcutoff }
          | Coordination.Ordered { dcutoff } )
          when depth < dcutoff ->
          (* Spawn-depth: every child becomes a task, with the engine's
             bound check and sibling cut. *)
          let rec spawn_children kept considered seq =
            match seq () with
            | Seq.Nil -> (kept, considered)
            | Seq.Cons (child, rest) ->
              if view.Ops.keep child then begin
                spawn ctx ~slot
                  { Task_pool.tag; node = child; depth = depth + 1 };
                spawn_children (kept + 1) (considered + 1) rest
              end
              else begin
                note_prune ctx ~slot (depth + 1);
                if view.Ops.prune_siblings then (kept, considered + 1)
                else spawn_children kept (considered + 1) rest
              end
          in
          let kept, considered =
            spawn_children 0 0 (ctx.children ctx.space task.Task_pool.node)
          in
          Depth_profile.note_complete prof depth kept;
          1 + considered
        | Coordination.Sequential | Coordination.Depth_bounded _
        | Coordination.Stack_stealing _ | Coordination.Budget _
        | Coordination.Best_first _ | Coordination.Random_spawn _
        | Coordination.Ordered _ ->
          (match s.engine with
          | Some e -> Engine.restart e ~root_depth:depth task.Task_pool.node
          | None ->
            s.engine <-
              Some
                (Engine.make ~prof ~space:ctx.space ~children:ctx.children
                   ~root_depth:depth task.Task_pool.node));
          s.live <- true;
          s.last_bt <- 0;
          (* Only Random_spawn draws from a per-task stream; the other
             coordinations skip the hash and the generator. *)
          s.rng <-
            (match ctx.coordination with
            | Coordination.Random_spawn _ ->
              Some (Splitmix.of_seed (Hashtbl.hash depth lxor 0x5e1f))
            | _ -> None);
          1
    end
  in
  if not s.live then end_span ctx ~slot s;
  units

let advance ctx ~slot ~steps =
  let s = ctx.slots.(slot) in
  match s.engine with
  | Some e when s.live ->
    let view = ctx.views.(slot) in
    let tag = s.tag in
    let entered = Engine.nodes_entered e and pruned = Engine.nodes_pruned e in
    let run ?on_enter ?on_leave () =
      Engine.run ?on_enter ?on_leave ~steps ~prune_rest:view.Ops.prune_siblings
        ~keep:view.Ops.keep ~process:view.Ops.process ~stop:ctx.stop e
    in
    (* The coordination's decision is chosen here, once per call, and
       handed to the engine's loop as a hook on the one transition it
       follows; the loop itself tests no coordination. *)
    let paused =
      match (ctx.coordination, s.rng) with
      | Coordination.Stack_stealing { chunked }, _ ->
        run ~on_enter:(fun () -> shed_to_thieves ctx ~slot view ~chunked ~tag e) ()
      | Coordination.Budget { budget }, _ ->
        run
          ~on_leave:(fun () ->
            if Engine.backtracks e - s.last_bt >= budget then begin
              ignore (split_chunk ctx ~slot view ~tag e : bool);
              s.last_bt <- Engine.backtracks e
            end)
          ()
      | Coordination.Random_spawn { mean_interval }, Some g ->
        run
          ~on_leave:(fun () ->
            if Splitmix.int g mean_interval = 0 then
              ignore (split_one ctx ~slot view ~tag e : bool))
          ()
      | ( ( Coordination.Sequential | Coordination.Depth_bounded _
          | Coordination.Best_first _ | Coordination.Random_spawn _
          | Coordination.Ordered _ ),
          _ ) ->
        run ()
    in
    (* The call's entered and pruned steps reach the counters now, so
       the live view lags a running task by at most one call. *)
    let st = stats ctx ~slot in
    let entered = Engine.nodes_entered e - entered
    and pruned = Engine.nodes_pruned e - pruned in
    st.Stats.nodes <- st.Stats.nodes + entered;
    st.Stats.pruned <- st.Stats.pruned + pruned;
    if not paused then begin
      s.live <- false;
      st.Stats.backtracks <- st.Stats.backtracks + Engine.backtracks e;
      st.Stats.max_depth <- max st.Stats.max_depth (Engine.max_depth e);
      end_span ctx ~slot s
    end;
    entered + pruned
  | Some _ | None -> 0

let chunk = 1024

let exec_task ctx ~slot task =
  ignore (start_task ctx ~slot task : int);
  while running ctx ~slot do
    ignore (advance ctx ~slot ~steps:chunk : int)
  done

(* A user exception (e.g. a raising generator) must not deadlock the
   scheduler: record it, short-circuit every worker, and let the caller
   decide what to do with it after the join. A task that raised the
   stop flag itself (a decision witness) wakes the blocked workers the
   same way. The slot's counters and task slot are re-allocated here,
   on the worker's own domain, before its first task. *)
let worker_loop ctx failure slot () =
  Counters.claim ctx.counters ~slot;
  ctx.slots.(slot) <- new_slot ();
  let d = ctx.domains in
  let rec loop () =
    match d.scheduler.take ~slot with
    | None -> ()
    | Some t ->
      d.scheduler.begin_task ~slot t;
      (match exec_task ctx ~slot t with
      | () -> if Atomic.get ctx.stop then request_stop ctx
      | exception e ->
        ignore (Atomic.compare_and_set failure None (Some e));
        request_stop ctx);
      (* Flush any per-task delta before the task counts finished, so
         an observer seeing zero outstanding also sees the delta. *)
      d.scheduler.end_task ~slot;
      d.scheduler.finish ();
      let c = ctx.counters.(slot) in
      c.Counters.tasks_done <- c.Counters.tasks_done + 1;
      loop ()
  in
  loop ()

type handle = { domains : unit Domain.t array; failure : exn option Atomic.t }

let start ctx ~workers =
  let failure = Atomic.make None in
  {
    domains =
      Array.init workers (fun i -> Domain.spawn (worker_loop ctx failure i));
    failure;
  }

let failure h = Atomic.get h.failure

let join h =
  Array.iter Domain.join h.domains;
  Atomic.get h.failure
