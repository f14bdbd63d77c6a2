module Engine = Yewpar_core.Engine
module Problem = Yewpar_core.Problem
module OC = Yewpar_core.Ordered_core

let search (type s n) ?(costs = Config.default) ?(dcutoff = 2)
    ~(topology : Config.topology) (p : (s, n, n) Problem.t) : n * Metrics.t =
  let obj =
    match p.Problem.kind with
    | Problem.Optimise obj -> obj
    | Problem.Enumerate _ | Problem.Decide _ ->
      invalid_arg "Ordered.search: optimisation problems only"
  in
  let value = obj.Problem.value in
  let prune_rest = obj.Problem.monotone && obj.Problem.bound <> None in
  let keep_against threshold c =
    match obj.Problem.bound with None -> true | Some b -> b c > threshold
  in

  (* Phase 1: sequential prefix walk (shared with the domains runtime). *)
  let prefix =
    OC.prefix_walk ~dcutoff obj p.Problem.children p.Problem.space p.Problem.root
  in
  let prefix_time = float_of_int prefix.OC.steps *. costs.Config.node_cost in

  (* Phase 2: list-schedule the ordered tasks over the workers. A
     task's pruning threshold is fixed at its start time from (a) all
     prefix entries to its left and (b) entries of left tasks that have
     already completed — never from the right, which is what makes the
     final incumbent replicable. *)
  let n_workers = Config.n_workers topology in
  let per_loc = topology.Config.workers_per_locality in
  let worker_free = Array.make n_workers prefix_time in
  let total_nodes = ref prefix.OC.steps in
  let pruned_tasks = ref 0 in
  let busy = Array.make n_workers 0. in
  let tasks_per_locality = Array.make topology.Config.localities 0 in
  (* Completed task entries: (completion_time, entry). *)
  let task_entries : (float * n OC.entry) list ref = ref [] in
  let run_task (t_path, t_root) =
    (* Earliest-free worker takes the next task in heuristic order. *)
    let w = ref 0 in
    for i = 1 to n_workers - 1 do
      if worker_free.(i) < worker_free.(!w) then w := i
    done;
    let w = !w in
    tasks_per_locality.(w / per_loc) <- tasks_per_locality.(w / per_loc) + 1;
    let start = worker_free.(w) +. costs.Config.task_overhead in
    let left =
      List.fold_left
        (fun acc (done_at, e) ->
          if done_at <= start && OC.path_compare e.OC.e_path t_path < 0 then
            max acc e.OC.e_value
          else acc)
        (OC.left_best prefix.OC.entries t_path)
        !task_entries
    in
    let threshold = ref left in
    let local_entries = ref [] in
    let steps = ref 0 in
    let consider node =
      let v = value node in
      if v > !threshold then begin
        threshold := v;
        (* In-task discovery order is DFS, i.e. left to right: the first
           node reaching a value is the leftmost; later equal values
           never replace it. *)
        local_entries :=
          { OC.e_path = t_path; e_value = v; e_node = node } :: !local_entries
      end
    in
    if keep_against !threshold t_root then begin
      incr steps;
      incr total_nodes;
      consider t_root;
      let e =
        Engine.make ~space:p.Problem.space ~children:p.Problem.children
          ~root_depth:(List.length t_path) t_root
      in
      let rec drive () =
        match Engine.step ~prune_rest ~keep:(keep_against !threshold) e with
        | Engine.Enter ->
          incr steps;
          incr total_nodes;
          consider (Engine.current e);
          drive ()
        | Engine.Pruned ->
          incr steps;
          drive ()
        | Engine.Leave -> drive ()
        | Engine.Exhausted -> ()
      in
      drive ()
    end
    else incr pruned_tasks;
    let duration =
      costs.Config.task_overhead +. (float_of_int !steps *. costs.Config.node_cost)
    in
    let finish = worker_free.(w) +. duration in
    worker_free.(w) <- finish;
    busy.(w) <- busy.(w) +. duration;
    List.iter (fun e -> task_entries := (finish, e) :: !task_entries) !local_entries
  in
  List.iter run_task prefix.OC.tasks;

  let all_entries = prefix.OC.entries @ List.map snd !task_entries in
  let best =
    match OC.select all_entries with
    | Some n -> n
    | None -> failwith "Ordered.search: no node processed (internal bug)"
  in
  let makespan = Array.fold_left Float.max prefix_time worker_free in
  let metrics =
    {
      Metrics.makespan;
      total_work = prefix_time +. Array.fold_left ( +. ) 0. busy;
      nodes = !total_nodes;
      pruned = !pruned_tasks;
      tasks = List.length prefix.OC.tasks;
      steal_attempts = 0;
      steal_successes = 0;
      bound_broadcasts = List.length all_entries;
      workers = n_workers;
      tasks_per_locality;
    }
  in
  (best, metrics)
