module Engine = Yewpar_core.Engine
module Problem = Yewpar_core.Problem
module OC = Yewpar_core.Ordered_core

let search (type s n) ?workers ?(dcutoff = 2) (p : (s, n, n) Problem.t) : n =
  let obj =
    match p.Problem.kind with
    | Problem.Optimise obj -> obj
    | Problem.Enumerate _ | Problem.Decide _ ->
      invalid_arg "Ordered_shm.search: optimisation problems only"
  in
  let n_workers =
    match workers with
    | Some w when w >= 1 -> w
    | Some _ -> invalid_arg "Ordered_shm.search: workers must be >= 1"
    | None -> Domain.recommended_domain_count ()
  in
  let value = obj.Problem.value in
  let prune_rest = obj.Problem.monotone && obj.Problem.bound <> None in
  let keep_against threshold c =
    match obj.Problem.bound with None -> true | Some b -> b c > threshold
  in

  (* Phase 1: sequential prefix walk (shared with the simulator). *)
  let prefix =
    OC.prefix_walk ~dcutoff obj p.Problem.children p.Problem.space p.Problem.root
  in
  let tasks = Array.of_list prefix.OC.tasks in

  (* Phase 2: domains pull tasks in heuristic order; pruning thresholds
     come from prefix entries plus already-published entries of left
     tasks (whatever is visible — timing only affects work, never the
     final witness). *)
  let next_task = Atomic.make 0 in
  let mutex = Mutex.create () in
  let shared_entries : n OC.entry list ref = ref prefix.OC.entries in
  let left_best_now path =
    Mutex.lock mutex;
    let best = OC.left_best !shared_entries path in
    Mutex.unlock mutex;
    best
  in
  let publish entries =
    if entries <> [] then begin
      Mutex.lock mutex;
      shared_entries := entries @ !shared_entries;
      Mutex.unlock mutex
    end
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next_task 1 in
      if i < Array.length tasks then begin
        let t_path, t_root = tasks.(i) in
        let threshold = ref (left_best_now t_path) in
        let local = ref [] in
        let consider node =
          let v = value node in
          if v > !threshold then begin
            threshold := v;
            local := { OC.e_path = t_path; e_value = v; e_node = node } :: !local
          end
        in
        if keep_against !threshold t_root then begin
          consider t_root;
          let e =
            Engine.make ~space:p.Problem.space ~children:p.Problem.children
              ~root_depth:(List.length t_path) t_root
          in
          let rec drive () =
            match Engine.step ~prune_rest ~keep:(keep_against !threshold) e with
            | Engine.Enter ->
              consider (Engine.current e);
              drive ()
            | Engine.Pruned | Engine.Leave -> drive ()
            | Engine.Exhausted -> ()
          in
          drive ()
        end;
        publish !local;
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init n_workers (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;

  match OC.select !shared_entries with
  | Some n -> n
  | None -> failwith "Ordered_shm.search: no node processed (internal bug)"
