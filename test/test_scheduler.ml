(* The two-tier scheduler's invariants, hammered directly (no search,
   no engine): the Chase-Lev deque's single-owner/multi-thief protocol,
   the cross-tier no-loss/no-duplication guarantee under concurrent
   push/pop/steal/shed traffic, and the overflow tier's order
   preservation (depth resp. priority) that Ordered-style skeletons
   rely on. *)

module Workpool = Yewpar_core.Workpool
module Deque = Yewpar_runtime.Deque
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Recorder = Yewpar_telemetry.Recorder

let task ?(tag = 0) ?(depth = 0) node = { Task_pool.tag; node; depth }

(* ------------------------- deque, owner only ---------------------- *)

let deque_lifo_fifo () =
  let d = Deque.create ~capacity:8 () in
  Alcotest.(check bool) "fresh empty" true (Deque.is_empty d);
  List.iter (fun i -> Alcotest.(check bool) "push" true (Deque.push d i)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 4 (Deque.size d);
  (* Owner pops LIFO (the newest = deepest task). *)
  Alcotest.(check (option int)) "pop newest" (Some 4) (Deque.pop d);
  (* Thieves steal FIFO (the oldest = shallowest, biggest subtree). *)
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop last" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal d)

let deque_bounded () =
  let d = Deque.create ~capacity:3 () in
  Alcotest.(check int) "rounded up to power of two" 4 (Deque.capacity d);
  for i = 1 to 4 do
    Alcotest.(check bool) "fills" true (Deque.push d i)
  done;
  Alcotest.(check bool) "full push refused" false (Deque.push d 5);
  Alcotest.(check (option int)) "contents intact" (Some 4) (Deque.pop d);
  Alcotest.(check bool) "room again" true (Deque.push d 5);
  (* Wrap around the circular buffer a few times: steal-one/push-one
     on a full deque walks the indices far past the capacity. *)
  let d2 = Deque.create ~capacity:4 () in
  for i = 1 to 4 do
    ignore (Deque.push d2 i)
  done;
  for i = 5 to 20 do
    Alcotest.(check (option int)) "wrap steal" (Some (i - 4)) (Deque.steal d2);
    Alcotest.(check bool) "wrap push" true (Deque.push d2 i)
  done;
  Alcotest.(check int) "still 4 queued" 4 (Deque.size d2)

(* Owner pushes/pops concurrently with stealing domains: every pushed
   element must surface exactly once, across pops and steals. *)
let deque_concurrent_steals () =
  let total = 20_000 in
  let thieves = 3 in
  let d = Deque.create ~capacity:64 () in
  let stop = Atomic.make false in
  let stolen = Array.init thieves (fun _ -> ref []) in
  let doms =
    Array.init thieves (fun i ->
        Domain.spawn (fun () ->
            let acc = stolen.(i) in
            while not (Atomic.get stop) do
              match Deque.steal d with
              | Some x -> acc := x :: !acc
              | None -> Domain.cpu_relax ()
            done))
  in
  let popped = ref [] in
  let next = ref 0 in
  (* Owner: keep the deque part-full, popping every third push so both
     ends stay hot; a refused push (full) just retries after a pop. *)
  while !next < total do
    if Deque.push d !next then begin
      incr next;
      if !next mod 3 = 0 then
        match Deque.pop d with
        | Some x -> popped := x :: !popped
        | None -> ()
    end
    else
      match Deque.pop d with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  (* Drain what's left before stopping the thieves. *)
  let rec drain () =
    match Deque.pop d with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> if Deque.size d > 0 then drain ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let seen = Array.make total 0 in
  List.iter (fun x -> seen.(x) <- seen.(x) + 1) !popped;
  Array.iter (fun acc -> List.iter (fun x -> seen.(x) <- seen.(x) + 1) !acc) stolen;
  Array.iteri
    (fun i n ->
      if n <> 1 then
        Alcotest.failf "element %d surfaced %d times (lost or duplicated)" i n)
    seen

(* ------------------- two-tier cross-tier stress ------------------- *)

(* 8 workers over tiny deques (capacity 8, so overflow spills are
   constant) with a shedder thread bouncing overflow-tier tasks out and
   back in (the dist shed/wire-arrival path, slot -1): every task id
   must be consumed exactly once across every path a task can travel —
   own pop, sibling steal, overflow pop, shed + re-entry. *)
let two_tier_stress () =
  let workers = 8 in
  let per_worker = 2_000 in
  let total = workers * per_worker in
  let tiers =
    Two_tier.create ~policy:Workpool.Depth ~deque_capacity:8 ~slots:workers ()
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
       deque sees mixed push/pop while siblings steal from it. *)
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
      ( "deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick deque_lifo_fifo;
          Alcotest.test_case "bounded + wraparound" `Quick deque_bounded;
          Alcotest.test_case "concurrent steals: no loss, no dup" `Quick
            deque_concurrent_steals;
        ] );
      ( "two-tier",
        [
          Alcotest.test_case "8-worker cross-tier stress" `Quick
            two_tier_stress;
          Alcotest.test_case "priority bypasses deques, global order" `Quick
            two_tier_priority_global_order;
          Alcotest.test_case "shed takes deque work, oldest first" `Quick
            shed_takes_deque_work;
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
