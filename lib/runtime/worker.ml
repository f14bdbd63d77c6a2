module Engine = Yewpar_core.Engine
module Ops = Yewpar_core.Ops
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Depth_profile = Yewpar_core.Depth_profile
module Recorder = Yewpar_telemetry.Recorder

type 'n scheduler = {
  enqueue : slot:int -> Recorder.t -> 'n Task_pool.task -> unit;
  take : slot:int -> 'n Task_pool.task option;
  finish : unit -> unit;
  should_shed : unit -> bool;
  begin_task : slot:int -> 'n Task_pool.task -> unit;
  end_task : slot:int -> unit;
}

type ('s, 'n) ctx = {
  space : 's;
  children : ('s, 'n) Problem.generator;
  coordination : Coordination.t;
  counters : Counters.t;
  recorders : Recorder.t array;
  views : 'n Ops.view array;
  scheduler : 'n scheduler;
  tiers : 'n Two_tier.t;
  stop : bool Atomic.t;
  failure : exn option Atomic.t;
  engines : ('s, 'n) Engine.t option ref array;
      (* per-slot scratch engine, restarted for each task so the hot
         loop reuses one engine record instead of allocating one *)
}

let make_ctx ~space ~children ~coordination ~counters ~recorders ~views
    ~scheduler ~tiers ~stop () =
  {
    space;
    children;
    coordination;
    counters;
    recorders;
    views;
    scheduler;
    tiers;
    stop;
    failure = Atomic.make None;
    engines = Array.init (Array.length views) (fun _ -> ref None);
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
  Two_tier.broadcast ctx.tiers

let note_prune ctx ~slot depth =
  Atomic.incr ctx.counters.Counters.pruned;
  Depth_profile.note_prune ctx.counters.Counters.profs.(slot) depth

let spawn ctx ~slot task =
  Atomic.incr ctx.counters.Counters.tasks;
  Depth_profile.note_spawn ctx.counters.Counters.profs.(slot)
    task.Task_pool.depth;
  ctx.scheduler.enqueue ~slot ctx.recorders.(slot) task

(* Bound-filter a split chunk of children at [depth] with the engine's
   sibling-cut semantics, so dead tasks are never spawned. A rejected
   child counts as one prune, as the engine would have counted it. *)
let filter_chunk ctx ~slot (view : 'n Ops.view) ~depth cs =
  let rec go acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if view.Ops.keep c then go (c :: acc) rest
      else begin
        note_prune ctx ~slot depth;
        if view.Ops.prune_siblings then List.rev acc else go acc rest
      end
  in
  go [] cs

(* Stack-Stealing work pushing: a running worker sheds work whenever
   the scheduler signals hunger (local thieves waiting on dry tiers;
   on dist additionally a starving remote locality). *)
(* Splits must credit the kept children they ship to other tasks back
   to the donor frame ([Engine.credit_kept]), so the frame's eventual
   [on_leave] reports the node's true committed-children count — the
   tree-size estimator's closed-stratum rule depends on it. Only
   filtered (kept) children are credited: the spawn-side bound filter
   prunes the rest. *)
let maybe_split_for_thieves ctx ~slot (view : 'n Ops.view) ~chunked ~tag e =
  if ctx.scheduler.should_shed () then
    if chunked then begin
      let cs, depth = Engine.split_lowest e in
      let kept = filter_chunk ctx ~slot view ~depth cs in
      Engine.credit_kept e ~depth:(depth - 1) ~n:(List.length kept);
      List.iter
        (fun node -> spawn ctx ~slot { Task_pool.tag; node; depth })
        kept
    end
    else
      match Engine.split_one e with
      | Some (node, depth) ->
        (* A rejected single split is not counted as a prune: no
           sibling cut applies here, so the engine still checks (and
           counts) the next sibling, as it would have counted this one. *)
        if view.Ops.keep node then begin
          Engine.credit_kept e ~depth:(depth - 1) ~n:1;
          spawn ctx ~slot { Task_pool.tag; node; depth }
        end
      | None -> ()

let exec_task ctx ~slot (task : 'n Task_pool.task) =
  let r = ctx.recorders.(slot) in
  let prof = ctx.counters.Counters.profs.(slot) in
  let dcell = ctx.counters.Counters.cur_depth.(slot) in
  let view = ctx.views.(slot) in
  let c = ctx.counters in
  let tag = task.Task_pool.tag in
  let started = Recorder.now r in
  dcell := task.Task_pool.depth;
  (if not (view.Ops.keep task.Task_pool.node) then
     note_prune ctx ~slot task.Task_pool.depth
   else if not (view.Ops.process task.Task_pool.node) then begin
     Atomic.incr c.Counters.nodes;
     Depth_profile.note_node prof task.Task_pool.depth;
     request_stop ctx
   end
   else begin
     Atomic.incr c.Counters.nodes;
     Depth_profile.note_node prof task.Task_pool.depth;
     match ctx.coordination with
     | ( Coordination.Depth_bounded { dcutoff }
       | Coordination.Best_first { dcutoff }
       | Coordination.Ordered { dcutoff } )
       when task.Task_pool.depth < dcutoff ->
       let rec spawn_children kept seq =
         match seq () with
         | Seq.Nil -> kept
         | Seq.Cons (child, rest) ->
           if view.Ops.keep child then begin
             spawn ctx ~slot
               { Task_pool.tag; node = child; depth = task.Task_pool.depth + 1 };
             spawn_children (kept + 1) rest
           end
           else begin
             note_prune ctx ~slot (task.Task_pool.depth + 1);
             if view.Ops.prune_siblings then kept
             else spawn_children kept rest
           end
       in
       let kept =
         spawn_children 0 (ctx.children ctx.space task.Task_pool.node)
       in
       Depth_profile.note_complete prof task.Task_pool.depth kept
     | Coordination.Sequential | Coordination.Depth_bounded _
     | Coordination.Stack_stealing _ | Coordination.Budget _
     | Coordination.Best_first _ | Coordination.Random_spawn _
     | Coordination.Ordered _ ->
       (* The slot's engine record is recycled across tasks
          ([Engine.restart]); each task allocates only its root frame. *)
       let e =
         match !(ctx.engines.(slot)) with
         | Some e ->
           Engine.restart e ~root_depth:task.Task_pool.depth
             task.Task_pool.node;
           e
         | None ->
           let e =
             Engine.make ~prof ~space:ctx.space ~children:ctx.children
               ~root_depth:task.Task_pool.depth task.Task_pool.node
           in
           ctx.engines.(slot) := Some e;
           e
       in
       let last_bt = ref 0 in
       (* Only Random_spawn draws from a per-task stream; the other
          coordinations skip the hash and the generator. *)
       let rng =
         match ctx.coordination with
         | Coordination.Random_spawn _ ->
           Some
             (Yewpar_util.Splitmix.of_seed
                (Hashtbl.hash task.Task_pool.depth lxor 0x5e1f))
         | _ -> None
       in
       let rec go () =
         if Atomic.get ctx.stop then ()
         else
           match
             Engine.step ~prune_rest:view.Ops.prune_siblings ~keep:view.Ops.keep
               e
           with
           | Engine.Enter ->
             incr dcell;
             Depth_profile.note_node prof !dcell;
             if view.Ops.process (Engine.current e) then begin
               (match ctx.coordination with
               | Coordination.Stack_stealing { chunked } ->
                 maybe_split_for_thieves ctx ~slot view ~chunked ~tag e
               | _ -> ());
               go ()
             end
             else request_stop ctx
           | Engine.Pruned ->
             Depth_profile.note_prune prof (!dcell + 1);
             go ()
           | Engine.Leave ->
             decr dcell;
             (match ctx.coordination with
             | Coordination.Budget { budget }
               when Engine.backtracks e - !last_bt >= budget ->
               let cs, depth = Engine.split_lowest e in
               let kept = filter_chunk ctx ~slot view ~depth cs in
               Engine.credit_kept e ~depth:(depth - 1)
                 ~n:(List.length kept);
               List.iter
                 (fun node -> spawn ctx ~slot { Task_pool.tag; node; depth })
                 kept;
               last_bt := Engine.backtracks e
             | Coordination.Random_spawn { mean_interval }
               when (match rng with
                    | Some g -> Yewpar_util.Splitmix.int g mean_interval = 0
                    | None -> false) -> (
               match Engine.split_one e with
               | Some (node, depth) when view.Ops.keep node ->
                 Engine.credit_kept e ~depth:(depth - 1) ~n:1;
                 spawn ctx ~slot { Task_pool.tag; node; depth }
               | Some _ | None -> ())
             | _ -> ());
             go ()
           | Engine.Exhausted -> ()
       in
       go ();
       ignore (Atomic.fetch_and_add c.Counters.nodes (Engine.nodes_entered e));
       ignore (Atomic.fetch_and_add c.Counters.pruned (Engine.nodes_pruned e));
       ignore (Atomic.fetch_and_add c.Counters.backtracks (Engine.backtracks e));
       Counters.note_max_depth c (Engine.max_depth e)
   end);
  Recorder.span r Recorder.Task ~span:tag ~start:started
    ~value:task.Task_pool.depth

(* A user exception (e.g. a raising generator) must not deadlock the
   scheduler: record it, short-circuit every worker, and let the caller
   decide what to do with it after the join. *)
let worker_loop ctx slot () =
  let rec loop () =
    match ctx.scheduler.take ~slot with
    | None -> ()
    | Some t ->
      ctx.scheduler.begin_task ~slot t;
      (try exec_task ctx ~slot t
       with e ->
         ignore (Atomic.compare_and_set ctx.failure None (Some e));
         request_stop ctx);
      (* Flush any per-task delta before the task counts finished, so
         an observer seeing zero outstanding also sees the delta. *)
      ctx.scheduler.end_task ~slot;
      ctx.scheduler.finish ();
      Atomic.incr ctx.counters.Counters.tasks_done;
      loop ()
  in
  loop ()

type handle = { domains : unit Domain.t array; failure : exn option Atomic.t }

let start ctx ~workers =
  {
    domains = Array.init workers (fun i -> Domain.spawn (worker_loop ctx i));
    failure = ctx.failure;
  }

let failure h = Atomic.get h.failure

let join h =
  Array.iter Domain.join h.domains;
  Atomic.get h.failure
