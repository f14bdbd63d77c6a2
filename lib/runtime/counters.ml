module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Recorder = Yewpar_telemetry.Recorder

type t = {
  nodes : int Atomic.t;
  pruned : int Atomic.t;
  tasks : int Atomic.t;
  tasks_done : int Atomic.t;
  backtracks : int Atomic.t;
  max_depth : int Atomic.t;
  steal_attempts : int Atomic.t;
  steals : int Atomic.t;
  bound_updates : int Atomic.t;
  profs : Depth_profile.t array;
}

let create ?(profiled = true) ?(progress = true) ~slots () =
  {
    nodes = Atomic.make 0;
    pruned = Atomic.make 0;
    tasks = Atomic.make 0;
    tasks_done = Atomic.make 0;
    backtracks = Atomic.make 0;
    max_depth = Atomic.make 0;
    steal_attempts = Atomic.make 0;
    steals = Atomic.make 0;
    bound_updates = Atomic.make 0;
    profs =
      Array.init slots (fun _ ->
          if profiled || progress then
            Depth_profile.create ~profiled ~progress ()
          else Depth_profile.null);
  }

let rec bump_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

let note_max_depth t v = bump_max t.max_depth v

let accounted_submit t ~slot ~recorder submit =
  let prof = t.profs.(slot) in
  fun n v ->
    let improved = submit n v in
    if improved then begin
      Atomic.incr t.bound_updates;
      Depth_profile.note_bound prof;
      Recorder.instant recorder Recorder.Bound ~span:0 ~value:v
    end;
    improved

let fold_into t ?(dropped = 0) (st : Stats.t) =
  st.Stats.nodes <- st.Stats.nodes + Atomic.get t.nodes;
  st.Stats.pruned <- st.Stats.pruned + Atomic.get t.pruned;
  st.Stats.backtracks <- st.Stats.backtracks + Atomic.get t.backtracks;
  st.Stats.max_depth <- max st.Stats.max_depth (Atomic.get t.max_depth);
  st.Stats.tasks <- st.Stats.tasks + Atomic.get t.tasks;
  st.Stats.steal_attempts <- st.Stats.steal_attempts + Atomic.get t.steal_attempts;
  st.Stats.steals <- st.Stats.steals + Atomic.get t.steals;
  st.Stats.bound_updates <- st.Stats.bound_updates + Atomic.get t.bound_updates;
  st.Stats.trace_dropped <- st.Stats.trace_dropped + dropped;
  Array.iter (fun prof -> Depth_profile.merge st.Stats.depths prof) t.profs

(* Cold path: called by the live monitor / heartbeat sender, not the
   workers. Slot profiles are racy-read; the merged sample is a
   consistent-enough snapshot for estimation. *)
let progress_sample t =
  Array.fold_left
    (fun acc prof ->
      Yewpar_core.Progress.merge acc (Yewpar_core.Progress.of_profile prof))
    Yewpar_core.Progress.empty t.profs
