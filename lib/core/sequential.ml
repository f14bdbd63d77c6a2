let search (type s n r) ?stats (p : (s, n, r) Problem.t) : r =
  let harness = Ops.harness p.kind in
  let knowledge = Knowledge.make_ref () in
  let view = harness.view knowledge in
  let prof =
    match stats with
    | Some st -> st.Stats.depths
    | None -> Depth_profile.null
  in
  let engine =
    Engine.make ~prof ~space:p.space ~children:p.children ~root_depth:0 p.root
  in
  (* The plain loop stays allocation- and branch-free on the hot path;
     the profiled variant (only when stats are requested) additionally
     buckets every enter/prune by depth, tracked incrementally so no
     engine query is needed per node. *)
  let rec loop () =
    match Engine.step ~prune_rest:view.prune_siblings ~keep:view.keep engine with
    | Engine.Enter -> if view.process (Engine.current engine) then loop ()
    | Engine.Pruned | Engine.Leave -> loop ()
    | Engine.Exhausted -> ()
  in
  let profiled_loop prof =
    let depth = ref 0 in
    let rec go () =
      match Engine.step ~prune_rest:view.prune_siblings ~keep:view.keep engine with
      | Engine.Enter ->
        incr depth;
        Depth_profile.note_node prof !depth;
        if view.process (Engine.current engine) then go ()
      | Engine.Pruned ->
        Depth_profile.note_prune prof (!depth + 1);
        go ()
      | Engine.Leave ->
        decr depth;
        go ()
      | Engine.Exhausted -> ()
    in
    go ()
  in
  (match stats with
  | None -> if view.process p.root then loop ()
  | Some st ->
    Depth_profile.note_node st.Stats.depths 0;
    if view.process p.root then profiled_loop st.Stats.depths);
  (match stats with
  | None -> ()
  | Some st ->
    st.Stats.nodes <- st.Stats.nodes + Engine.nodes_entered engine + 1;
    st.Stats.pruned <- st.Stats.pruned + Engine.nodes_pruned engine;
    st.Stats.backtracks <- st.Stats.backtracks + Engine.backtracks engine;
    st.Stats.max_depth <- max st.Stats.max_depth (Engine.max_depth engine));
  harness.result knowledge

let search_with_stats p =
  let stats = Stats.create () in
  let r = search ~stats p in
  (r, stats)
