(* [Depth_profile] against a naive per-depth model.

   Random sequences of notes, with depths from -1 to past 200 so that
   every growth step is crossed, are applied both to a profile and to a
   reference that keeps one record per touched depth in an association
   list. Every read ([row], [totals], [depths], [progress_depths],
   [progress_row], [is_empty], [to_csv]) must agree, for each of the
   four [profiled] x [progress] combinations and for [null], after
   [copy] (which must be independent of its source) and after [merge]
   (into each of the five kinds of profile). *)

module Depth_profile = Yewpar_core.Depth_profile

type op =
  | Node of int
  | Prune of int
  | Spawn of int
  | Bound
  | Complete of int * int

let pp_op = function
  | Node d -> Printf.sprintf "node %d" d
  | Prune d -> Printf.sprintf "prune %d" d
  | Spawn d -> Printf.sprintf "spawn %d" d
  | Bound -> "bound"
  | Complete (d, k) -> Printf.sprintf "complete %d %d" d k

(* Depth 0..5 to crowd the first rows, then anything up to 210 to
   cross every doubling of a 16-row start (16, 32, 64, 128, 256). *)
let depth_gen =
  QCheck.Gen.(frequency [ (3, int_range (-1) 5); (2, int_range (-1) 210) ])

let op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun d -> Node d) depth_gen);
        (2, map (fun d -> Prune d) depth_gen);
        (1, map (fun d -> Spawn d) depth_gen);
        (1, return Bound);
        (2, map2 (fun d k -> Complete (d, k)) depth_gen (int_bound 6)) ])

let ops_gen = QCheck.Gen.(list_size (int_bound 120) op_gen)

(* 0..3: [profiled] x [progress]; 4: [null]. *)
let mode_gen = QCheck.Gen.int_bound 4

let make = function
  | 4 -> Depth_profile.null
  | m -> Depth_profile.create ~profiled:(m land 1 = 0) ~progress:(m land 2 = 0) ()

(* The reference: one record per depth, created on first write. *)
type cell = {
  mutable nodes : int;
  mutable pruned : int;
  mutable spawned : int;
  mutable bounds : int;
  mutable completed : int;
  mutable kept : int;
  mutable kept_sq : int;
}

type model = {
  on : bool;
  progress : bool;
  mutable last : int;
  mutable cells : (int * cell) list;
}

let model_of = function
  | 4 -> { on = false; progress = false; last = 0; cells = [] }
  | m -> { on = m land 1 = 0; progress = m land 2 = 0; last = 0; cells = [] }

let zero () =
  { nodes = 0; pruned = 0; spawned = 0; bounds = 0; completed = 0; kept = 0;
    kept_sq = 0 }

let cell m d =
  match List.assoc_opt d m.cells with
  | Some c -> c
  | None ->
    let c = zero () in
    m.cells <- (d, c) :: m.cells;
    c

let peek m d = Option.value (List.assoc_opt d m.cells) ~default:(zero ())

let apply m = function
  | Node d ->
    if d >= 0 && (m.on || m.progress) then begin
      let c = cell m d in
      c.nodes <- c.nodes + 1;
      m.last <- d
    end
  | Prune d ->
    if m.on && d >= 0 then
      let c = cell m d in
      c.pruned <- c.pruned + 1
  | Spawn d ->
    if m.on && d >= 0 then
      let c = cell m d in
      c.spawned <- c.spawned + 1
  | Bound ->
    if m.on then
      let c = cell m m.last in
      c.bounds <- c.bounds + 1
  | Complete (d, k) ->
    if m.progress && d >= 0 then begin
      let c = cell m d in
      c.completed <- c.completed + 1;
      c.kept <- c.kept + k;
      c.kept_sq <- c.kept_sq + (k * k)
    end

let note p = function
  | Node d -> Depth_profile.note_node p d
  | Prune d -> Depth_profile.note_prune p d
  | Spawn d -> Depth_profile.note_spawn p d
  | Bound -> Depth_profile.note_bound p
  | Complete (d, k) -> Depth_profile.note_complete p d k

(* A profile that records anything takes the four profile columns of
   what it merges; one with progress on also takes the progress
   columns. *)
let model_merge acc s =
  if acc.on || acc.progress then
    List.iter
      (fun (d, (x : cell)) ->
        let c = cell acc d in
        c.nodes <- c.nodes + x.nodes;
        c.pruned <- c.pruned + x.pruned;
        c.spawned <- c.spawned + x.spawned;
        c.bounds <- c.bounds + x.bounds;
        if acc.progress then begin
          c.completed <- c.completed + x.completed;
          c.kept <- c.kept + x.kept;
          c.kept_sq <- c.kept_sq + x.kept_sq
        end)
      s.cells

let model_copy m =
  { m with cells = List.map (fun (d, c) -> (d, { c with nodes = c.nodes })) m.cells }

let extent m keep =
  List.fold_left (fun n (d, c) -> if keep c then max n (d + 1) else n) 0 m.cells

let m_depths m =
  extent m (fun c -> c.nodes + c.pruned + c.spawned + c.bounds > 0)

let m_progress_depths m =
  if m.progress then extent m (fun c -> c.nodes + c.completed > 0) else 0

let m_row m d =
  let c = peek m d in
  (c.nodes, c.pruned, c.spawned, c.bounds)

let m_progress_row m d =
  let c = peek m d in
  (c.nodes, c.completed, c.kept, float_of_int c.kept_sq)

let m_totals m =
  List.fold_left
    (fun (a, b, c', e) (_, c) ->
      (a + c.nodes, b + c.pruned, c' + c.spawned, e + c.bounds))
    (0, 0, 0, 0) m.cells

let m_csv m =
  let b = Buffer.create 256 in
  Buffer.add_string b "depth,nodes,pruned,spawned,bound_updates\n";
  for d = 0 to m_depths m - 1 do
    let n, p, s, u = m_row m d in
    Buffer.add_string b (Printf.sprintf "%d,%d,%d,%d,%d\n" d n p s u)
  done;
  Buffer.contents b

(* Every read of [p] against [m]; rows are read from -1 to a few past
   the extent, where they must be zero. *)
let agrees p m =
  let depths = Depth_profile.depths p and pdepths = Depth_profile.progress_depths p in
  depths = m_depths m
  && pdepths = m_progress_depths m
  && List.for_all
       (fun d -> Depth_profile.row p d = m_row m d)
       (List.init (depths + 4) (fun i -> i - 1))
  && List.for_all
       (fun d -> Depth_profile.progress_row p d = m_progress_row m d)
       (List.init (max depths pdepths + 4) (fun i -> i - 1))
  && Depth_profile.totals p = m_totals m
  && Depth_profile.is_empty p = (m_totals m = (0, 0, 0, 0))
  && Depth_profile.to_csv p = m_csv m

let run mode ops =
  let p = make mode and m = model_of mode in
  List.iter (fun o -> note p o; apply m o) ops;
  (p, m)

let case_gen =
  QCheck.Gen.(
    pair (pair mode_gen ops_gen)
      (pair (pair mode_gen ops_gen) (pair ops_gen mode_gen)))

let print_case ((ma, a), ((mb, b), (c, mc))) =
  let ops l = String.concat "; " (List.map pp_op l) in
  Printf.sprintf "mode %d [%s]\nmode %d [%s]\nthen [%s]\nmerge into mode %d" ma
    (ops a) mb (ops b) (ops c) mc

let prop_profile_is_model =
  QCheck.Test.make ~name:"depth profile = per-depth model" ~count:500
    (QCheck.make ~print:print_case case_gen)
    (fun ((ma, a), ((mb, b), (c, mc))) ->
      let p, pm = run ma a and q, qm = run mb b in
      let recorded = agrees p pm && agrees q qm in
      (* [copy] snapshots, and the two then diverge. *)
      let p' = Depth_profile.copy p and pm' = model_copy pm in
      List.iter (fun o -> note p' o; apply pm' o) c;
      let copied = agrees p pm && agrees p' pm' in
      (* [merge] into the recorded profile, into its copy, and into a
         fresh profile of a third mode, which then records [c] too. *)
      Depth_profile.merge p q;
      model_merge pm qm;
      Depth_profile.merge p' q;
      model_merge pm' qm;
      let r = make mc and rm = model_of mc in
      Depth_profile.merge r p;
      model_merge rm pm;
      List.iter (fun o -> note r o; apply rm o) c;
      let merged = agrees p pm && agrees p' pm' && agrees q qm && agrees r rm in
      (* [null] is never written, whatever is done to it. *)
      let null_clean = agrees Depth_profile.null (model_of 4) in
      recorded && copied && merged && null_clean)

let () =
  Alcotest.run "depth_profile"
    [ ("model", [ QCheck_alcotest.to_alcotest prop_profile_is_model ]) ]
