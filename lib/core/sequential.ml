let search (type s n r) ?stats (p : (s, n, r) Problem.t) : r =
  let harness = Ops.harness p.kind in
  let knowledge = Knowledge.make_atomic () in
  let view = harness.view knowledge in
  let prof =
    match stats with
    | Some st -> st.Stats.depths
    | None -> Depth_profile.null
  in
  (* The engine records every transition into [prof]; only the root,
     which the engine never enters, is noted here. *)
  let engine =
    Engine.make ~prof ~space:p.space ~children:p.children ~root_depth:0 p.root
  in
  Depth_profile.note_node prof 0;
  if view.process p.root then
    ignore
      (Engine.run ~prune_rest:view.prune_siblings ?keep:view.keep
         ~process:view.process ~stop:(Atomic.make false) engine
        : bool);
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
