module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Progress = Yewpar_core.Progress
module Recorder = Yewpar_telemetry.Recorder

type slot = { stats : Stats.t; mutable tasks_done : int }
type t = slot array

let create ?(profiled = true) ?(progress = true) ~slots () =
  Array.init slots (fun _ ->
      let depths =
        if profiled || progress then Depth_profile.create ~profiled ~progress ()
        else Depth_profile.null
      in
      { stats = { (Stats.create ()) with Stats.depths }; tasks_done = 0 })

let claim t ~slot =
  let s = t.(slot) in
  t.(slot) <- { stats = Stats.copy s.stats; tasks_done = s.tasks_done }

let note_spawn t ~slot depth =
  let st = t.(slot).stats in
  st.Stats.tasks <- st.Stats.tasks + 1;
  Depth_profile.note_spawn st.Stats.depths depth

let note_bound t ~slot =
  let st = t.(slot).stats in
  st.Stats.bound_updates <- st.Stats.bound_updates + 1;
  Depth_profile.note_bound st.Stats.depths

(* The slot is looked up on each improvement, not when the wrapper is
   built: the wrapper is built before the slot's domain claims it. *)
let accounted_submit t ~slot ~recorder submit n v =
  let improved = submit n v in
  if improved then begin
    note_bound t ~slot;
    Recorder.instant recorder Recorder.Bound ~span:0 ~value:v
  end;
  improved

let fold_into t ?(dropped = 0) (st : Stats.t) =
  Array.iter (fun s -> Stats.add st s.stats) t;
  st.Stats.trace_dropped <- st.Stats.trace_dropped + dropped

(* Cold paths: called by the live monitor / heartbeat sender, not the
   workers. Every read is word-sized and racy; the sums are a
   consistent-enough snapshot for monitoring and estimation. *)
let total t f = Array.fold_left (fun acc s -> acc + f s.stats) 0 t
let tasks_done t = Array.fold_left (fun acc s -> acc + s.tasks_done) 0 t

let progress_sample t =
  Array.fold_left
    (fun acc s -> Progress.merge acc (Progress.of_profile s.stats.Stats.depths))
    Progress.empty t
