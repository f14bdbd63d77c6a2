(* The two-tier scheduler's invariants, hammered directly (no search,
   no engine): the per-worker pools' own-pop and steal orders, the
   cross-tier no-loss/no-duplication guarantee under concurrent
   push/pop/steal/shed traffic, and the overflow tier's order
   preservation (depth resp. priority) that Ordered-style skeletons
   rely on. *)

module Workpool = Yewpar_core.Workpool
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Recorder = Yewpar_telemetry.Recorder

let task ?(tag = 0) ?(depth = 0) node = { Task_pool.tag; node; depth }

(* ---------------------- per-worker pool order --------------------- *)

(* A slot's own takes run its same-depth tasks in the order it
   enqueued them (spawn = heuristic order), deepest first; a sibling's
   take steals the shallowest, oldest task. *)
let own_pool_order () =
  let tiers = Two_tier.create ~policy:Workpool.Depth ~slots:2 () in
  List.iter
    (fun (id, depth) ->
      Two_tier.enqueue tiers ~slot:0 ~recorder:Recorder.null ~priority:0
        (task ~depth id))
    [ (1, 1); (2, 2); (3, 2); (4, 1); (5, 2) ];
  let stop = Atomic.make false in
  let take slot =
    Option.map
      (fun t -> t.Task_pool.node)
      (Two_tier.take tiers ~slot ~recorder:Recorder.null ~stop
         ~drained:(fun () -> true)
         ())
  in
  Alcotest.(check (option int)) "sibling steals shallowest, oldest" (Some 1)
    (take 1);
  let own = List.init 5 (fun _ -> take 0) in
  Alcotest.(check (list (option int)))
    "own takes: deepest first, FIFO within a depth"
    [ Some 2; Some 3; Some 5; Some 4; None ]
    own

(* ------------------- two-tier cross-tier stress ------------------- *)

(* 8 workers over their own pools with a shedder thread bouncing overflow-tier tasks out and
   back in (the dist shed/wire-arrival path, slot -1): every task id
   must be consumed exactly once across every path a task can travel —
   own pop, sibling steal, overflow pop, shed + re-entry. *)
let two_tier_stress () =
  let workers = 8 in
  let per_worker = 2_000 in
  let total = workers * per_worker in
  let tiers =
    Two_tier.create ~policy:Workpool.Depth ~slots:workers ()
  in
  let stop = Atomic.make false in
  let consumed = Atomic.make 0 in
  let seen = Array.make total 0 in
  let record id =
    (* Per-cell increments race only if an id is consumed twice; a
       duplication also makes [consumed] hit [total] with some other
       cell still at 0, so the final sweep catches it either way. *)
    seen.(id) <- seen.(id) + 1;
    if Atomic.fetch_and_add consumed 1 = total - 1 then
      Two_tier.broadcast tiers
  in
  let worker slot () =
    let rng = Yewpar_util.Splitmix.of_seed (slot * 7919) in
    (* Phase 1: produce our id range, taking now and then so the own
       pool sees mixed push/pop while siblings steal from it. *)
    for i = 0 to per_worker - 1 do
      let id = (slot * per_worker) + i in
      Two_tier.enqueue tiers ~slot ~recorder:Recorder.null ~priority:0
        (task ~depth:(id mod 13) id);
      if Yewpar_util.Splitmix.int rng 4 = 0 then
        match
          Two_tier.take tiers ~slot ~recorder:Recorder.null ~stop
            ~drained:(fun () -> true)
            ()
        with
        | Some t -> record t.Task_pool.node
        | None -> ()
    done;
    (* Phase 2: consume until everything everywhere is accounted. *)
    let rec go () =
      match
        Two_tier.take tiers ~slot ~recorder:Recorder.null ~stop
          ~drained:(fun () -> Atomic.get consumed >= total)
          ()
      with
      | Some t ->
        record t.Task_pool.node;
        go ()
      | None -> ()
    in
    go ()
  in
  let doms = Array.init workers (fun i -> Domain.spawn (worker i)) in
  (* Shedder (this thread): drain halves of the overflow tier and
     re-enqueue them ownerless, like wire arrivals coming back. *)
  while Atomic.get consumed < total do
    (match Two_tier.shed_half tiers with
    | [] -> Domain.cpu_relax ()
    | shed ->
      List.iter
        (fun t ->
          Two_tier.enqueue tiers ~slot:(-1) ~recorder:Recorder.null ~priority:0
            t)
        shed)
  done;
  Two_tier.broadcast tiers;
  Array.iter Domain.join doms;
  Alcotest.(check int) "all consumed" total (Atomic.get consumed);
  Array.iteri
    (fun id n ->
      if n <> 1 then
        Alcotest.failf "task %d consumed %d times (lost or duplicated)" id n)
    seen

(* A priority pool bypasses the deques: pushes from any slot must come
   back in global priority order from any taker. *)
let two_tier_priority_global_order () =
  let tiers = Two_tier.create ~policy:Workpool.Priority ~slots:4 () in
  let stop = Atomic.make false in
  List.iteri
    (fun i prio ->
      Two_tier.enqueue tiers ~slot:(i mod 4) ~recorder:Recorder.null
        ~priority:prio (task prio))
    [ 3; 9; 1; 7; 9; 0 ];
  Alcotest.(check int) "all queued" 6 (Two_tier.queued tiers);
  let rec drain acc =
    match
      Two_tier.take tiers ~slot:0 ~recorder:Recorder.null ~stop
        ~drained:(fun () -> true)
        ()
    with
    | Some t -> drain (t.Task_pool.node :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int))
    "global priority order" [ 9; 9; 7; 3; 1; 0 ] (drain [])

(* A dist locality sheds from both tiers: with everything in slot 0's
   deque, half of it (rounded up) leaves oldest-first, which in a
   depth-first search is shallowest-first, and the owner still pops
   the rest. *)
let shed_takes_deque_work () =
  let tiers = Two_tier.create ~policy:Workpool.Depth ~slots:2 () in
  List.iter
    (fun depth ->
      Two_tier.enqueue tiers ~slot:0 ~recorder:Recorder.null ~priority:0
        (task ~depth depth))
    [ 1; 2; 3; 4; 5 ];
  let shed = List.map (fun t -> t.Task_pool.depth) (Two_tier.shed_half tiers) in
  Alcotest.(check (list int)) "shallowest 3 of 5" [ 1; 2; 3 ] shed;
  Alcotest.(check int) "shed leaves the count" 2 (Two_tier.queued tiers);
  let stop = Atomic.make false in
  let pop () =
    Option.map
      (fun t -> t.Task_pool.depth)
      (Two_tier.take tiers ~slot:0 ~recorder:Recorder.null ~stop
         ~drained:(fun () -> true)
         ())
  in
  let first = pop () in
  let second = pop () in
  Alcotest.(check (list (option int)))
    "owner pops the rest deepest-first" [ Some 5; Some 4 ] [ first; second ];
  Alcotest.(check int) "nothing left to shed" 0
    (List.length (Two_tier.shed_half tiers))

(* ------------------ overflow-tier order properties ---------------- *)

(* Ownerless pushes (slot -1: wire arrivals, the communicator) land in
   the overflow tier whatever the policy, so these drive its order
   through [Two_tier] alone. *)
let overflow ~policy entries =
  let tiers = Two_tier.create ~policy ~slots:1 () in
  List.iter
    (fun (priority, tk) ->
      Two_tier.enqueue tiers ~slot:(-1) ~recorder:Recorder.null ~priority tk)
    entries;
  tiers

let overflow_drain tiers =
  let stop = Atomic.make false in
  let rec go acc =
    match
      Two_tier.take tiers ~slot:0 ~recorder:Recorder.null ~stop
        ~drained:(fun () -> true)
        ()
    with
    | Some t -> go (t :: acc)
    | None -> List.rev acc
  in
  go []

let prop_depth_order =
  QCheck.Test.make ~name:"overflow pops deepest-first" ~count:300
    QCheck.(list (int_bound 30))
    (fun depths ->
      let tiers =
        overflow ~policy:Workpool.Depth
          (List.mapi (fun i depth -> (0, task ~depth i)) depths)
      in
      let out = List.map (fun t -> t.Task_pool.depth) (overflow_drain tiers) in
      List.length out = List.length depths
      && out = List.sort (fun a b -> compare b a) out)

let prop_priority_order =
  QCheck.Test.make ~name:"overflow pops highest-priority-first" ~count:300
    QCheck.(list (int_range (-20) 20))
    (fun prios ->
      let tiers =
        overflow ~policy:Workpool.Priority
          (List.mapi (fun i priority -> (priority, task i)) prios)
      in
      let out = List.map (fun t -> t.Task_pool.node) (overflow_drain tiers) in
      let got = List.map (fun i -> List.nth prios i) out in
      List.length out = List.length prios
      && got = List.sort (fun a b -> compare b a) got)

(* Sheds leave shallowest-first, preserving pop order for the rest. *)
let shed_order () =
  let tiers =
    overflow ~policy:Workpool.Depth
      (List.map
         (fun (id, depth) -> (0, task ~depth id))
         [ (0, 5); (1, 1); (2, 3); (3, 7); (4, 2) ])
  in
  let shed = List.map (fun t -> t.Task_pool.depth) (Two_tier.shed_half tiers) in
  Alcotest.(check (list int)) "shallowest 3 of 5" [ 1; 2; 3 ] shed;
  Alcotest.(check int) "shed leaves the count" 2 (Two_tier.queued tiers);
  let rest = List.map (fun t -> t.Task_pool.depth) (overflow_drain tiers) in
  Alcotest.(check (list int)) "rest still deepest-first" [ 7; 5 ] rest

(* ------------------------ steal accounting ------------------------ *)

(* One take on one domain with real counters and a real recorder:
   the taking slot's attempts and steals, and the kinds of the events
   its recorder holds afterwards. *)
let accounted_take tiers ~slot ~drained =
  let counters = Yewpar_runtime.Counters.create ~slots:2 () in
  let recorder = Recorder.create ~capacity:64 ~worker:slot () in
  let got =
    Two_tier.take tiers ~slot ~recorder ~stop:(Atomic.make false)
      ~steal_counters:counters ~drained ()
  in
  let st = counters.(slot).Yewpar_runtime.Counters.stats in
  let events =
    List.map
      (fun (e : Yewpar_telemetry.Journal.event) -> e.Yewpar_telemetry.Journal.ev)
      (Recorder.drain recorder)
  in
  ( Option.map (fun t -> t.Task_pool.node) got,
    st.Yewpar_core.Stats.steal_attempts,
    st.Yewpar_core.Stats.steals,
    events )

let check_take what (got, attempts, steals, events)
    (want, want_attempts, want_steals, want_events) =
  Alcotest.(check (option int)) (what ^ ": task") want got;
  Alcotest.(check int) (what ^ ": attempts") want_attempts attempts;
  Alcotest.(check int) (what ^ ": steals") want_steals steals;
  Alcotest.(check (list string)) (what ^ ": events") want_events events

let steal_from_sibling_deque () =
  let tiers = Two_tier.create ~policy:Workpool.Depth ~slots:2 () in
  Two_tier.enqueue tiers ~slot:0 ~recorder:Recorder.null ~priority:0 (task 7);
  check_take "sibling deque"
    (accounted_take tiers ~slot:1 ~drained:(fun () -> true))
    (Some 7, 1, 1, [ "steal" ])

let own_pool_push_is_no_steal () =
  let tiers = Two_tier.create ~policy:Workpool.Priority ~slots:2 () in
  Two_tier.enqueue tiers ~slot:0 ~recorder:Recorder.null ~priority:3 (task 8);
  check_take "own pool push"
    (accounted_take tiers ~slot:0 ~drained:(fun () -> true))
    (Some 8, 1, 0, [])

let ownerless_push_is_a_steal () =
  let tiers = Two_tier.create ~policy:Workpool.Depth ~slots:2 () in
  Two_tier.enqueue tiers ~slot:(-1) ~recorder:Recorder.null ~priority:0 (task 9);
  check_take "ownerless push"
    (accounted_take tiers ~slot:0 ~drained:(fun () -> true))
    (Some 9, 1, 1, [ "steal" ])

let drained_take_records_one_idle () =
  let tiers = Two_tier.create ~policy:Workpool.Depth ~slots:2 () in
  check_take "drained"
    (accounted_take tiers ~slot:0 ~drained:(fun () -> true))
    (None, 1, 0, [ "idle" ])

let () =
  Alcotest.run "scheduler"
    [
      ( "two-tier",
        [
          Alcotest.test_case "8-worker cross-tier stress" `Quick
            two_tier_stress;
          Alcotest.test_case "priority bypasses deques, global order" `Quick
            two_tier_priority_global_order;
          Alcotest.test_case "shed takes deque work, oldest first" `Quick
            shed_takes_deque_work;
          Alcotest.test_case "own pool FIFO per depth, sibling steals shallowest"
            `Quick own_pool_order;
        ] );
      ( "overflow order",
        Alcotest.test_case "shed shallowest, pops unchanged" `Quick shed_order
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_depth_order; prop_priority_order ] );
      ( "steal counts",
        [
          Alcotest.test_case "sibling deque: 1 attempt, 1 steal" `Quick
            steal_from_sibling_deque;
          Alcotest.test_case "own pool push under Priority: no steal" `Quick
            own_pool_push_is_no_steal;
          Alcotest.test_case "ownerless pool push: 1 steal" `Quick
            ownerless_push_is_a_steal;
          Alcotest.test_case "drained take: one Idle" `Quick
            drained_take_records_one_idle;
        ] );
    ]
