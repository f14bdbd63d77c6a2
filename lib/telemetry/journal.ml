module Table = Yewpar_util.Table

let schema_version = 1

(* ----------------------------- events ----------------------------- *)

type event = {
  ev : string;
  span : int;
  parent : int;
  locality : int;
  worker : int;
  t : float;
  dur : float;
  value : int;
  note : string;
}

let event ?(parent = -1) ?(locality = -1) ?(worker = -1) ?t ?(dur = 0.)
    ?(value = 0) ?(note = "") ~ev ~span () =
  let t = match t with Some t -> t | None -> Unix.gettimeofday () in
  { ev; span; parent; locality; worker; t; dur; value; note }

(* ----------------------------- writer ----------------------------- *)

type writer = {
  w_path : string;
  w_max_bytes : int;
  w_trace : string;
  w_epoch : float;
  w_mutex : Mutex.t;
  mutable w_oc : out_channel;
  mutable w_bytes : int;
  mutable w_written : int;
  mutable w_rotations : int;
  mutable w_closed : bool;
}

let fresh_trace () =
  Printf.sprintf "run-%06x"
    (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffff)

let create ?(max_bytes = 64 * 1024 * 1024) ?trace ~path () =
  let trace = match trace with Some t -> t | None -> fresh_trace () in
  {
    w_path = path;
    w_max_bytes = max_bytes;
    w_trace = trace;
    w_epoch = Unix.gettimeofday ();
    w_mutex = Mutex.create ();
    w_oc = open_out path;
    w_bytes = 0;
    w_written = 0;
    w_rotations = 0;
    w_closed = false;
  }

let trace w = w.w_trace

let encode_line ~trace ~at e =
  let open Analyze in
  let num i = Num (float_of_int i) in
  to_string
    (Obj
       [
         ("v", num schema_version);
         ("trace", Str trace);
         ("ev", Str e.ev);
         ("span", num e.span);
         ("parent", if e.parent < 0 then Null else num e.parent);
         ("loc", num e.locality);
         ("worker", num e.worker);
         ("ts", Num e.t);
         ("at", Num at);
         ("dur", Num e.dur);
         ("value", num e.value);
         ("note", Str e.note);
       ])

let rotate w =
  close_out_noerr w.w_oc;
  (try Sys.rename w.w_path (w.w_path ^ ".1") with Sys_error _ -> ());
  w.w_oc <- open_out w.w_path;
  w.w_bytes <- 0;
  w.w_rotations <- w.w_rotations + 1

let write ?trace ?(offset = 0.) w events =
  let trace = match trace with Some t -> t | None -> w.w_trace in
  Mutex.lock w.w_mutex;
  if not w.w_closed then begin
    List.iter
      (fun e ->
        if w.w_bytes > w.w_max_bytes then rotate w;
        let at = e.t +. offset -. w.w_epoch in
        let line = encode_line ~trace ~at e in
        output_string w.w_oc line;
        output_char w.w_oc '\n';
        w.w_bytes <- w.w_bytes + String.length line + 1;
        w.w_written <- w.w_written + 1)
      events;
    flush w.w_oc
  end;
  Mutex.unlock w.w_mutex

let written w =
  Mutex.lock w.w_mutex;
  let n = w.w_written in
  Mutex.unlock w.w_mutex;
  n

let rotations w =
  Mutex.lock w.w_mutex;
  let n = w.w_rotations in
  Mutex.unlock w.w_mutex;
  n

let close w =
  Mutex.lock w.w_mutex;
  if not w.w_closed then begin
    w.w_closed <- true;
    close_out_noerr w.w_oc
  end;
  Mutex.unlock w.w_mutex

(* ----------------------------- reader ----------------------------- *)

type entry = {
  e_trace : string;
  e_ev : string;
  e_span : int;
  e_parent : int;
  e_locality : int;
  e_worker : int;
  e_ts : float;
  e_at : float;
  e_dur : float;
  e_value : int;
  e_note : string;
}

let entry_of_line line =
  match Analyze.parse_json line with
  | exception Failure _ -> None
  | json ->
    let open Analyze in
    let inum d m = int_of_float (num_or (float_of_int d) (member m json)) in
    let v = inum 0 "v" in
    let ev = str_or "" (member "ev" json) in
    if v <> schema_version || ev = "" then None
    else
      Some
        {
          e_trace = str_or "" (member "trace" json);
          e_ev = ev;
          e_span = inum (-1) "span";
          e_parent =
            (match member "parent" json with
            | Some (Num f) -> int_of_float f
            | _ -> -1);
          e_locality = inum (-1) "loc";
          e_worker = inum (-1) "worker";
          e_ts = num_or 0. (member "ts" json);
          e_at = num_or 0. (member "at" json);
          e_dur = num_or 0. (member "dur" json);
          e_value = inum 0 "value";
          e_note = str_or "" (member "note" json);
        }

let read_string content =
  let entries = ref [] in
  let malformed = ref 0 in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" then
           match entry_of_line line with
           | Some e -> entries := e :: !entries
           | None -> incr malformed);
  (List.rev !entries, !malformed)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  read_string content

let read path =
  let rotated = path ^ ".1" in
  let older =
    if Sys.file_exists rotated then read_file rotated else ([], 0)
  in
  let newer = read_file path in
  (fst older @ fst newer, snd older + snd newer)

(* -------------------------- load balance -------------------------- *)

let fsec v = Printf.sprintf "%.6f" v
let fpct v = Printf.sprintf "%.1f" v

let load_balance entries =
  let evs = List.filter (fun e -> e.e_worker >= 0) entries in
  if evs = [] then "empty trace: nothing to analyze\n"
  else begin
    let t0 = List.fold_left (fun acc e -> Float.min acc e.e_at) infinity evs in
    let t1 =
      List.fold_left (fun acc e -> Float.max acc (e.e_at +. e.e_dur)) neg_infinity
        evs
    in
    let makespan = t1 -. t0 in
    (* Per-(locality, worker) accumulation, in stable id order. *)
    let table = Hashtbl.create 32 in
    let track e =
      let key = (e.e_locality, e.e_worker) in
      match Hashtbl.find_opt table key with
      | Some v -> v
      | None ->
        let v = (ref 0., ref 0., ref 0, ref 0) in
        Hashtbl.add table key v;
        v
    in
    let steal_lat = ref [] in
    List.iter
      (fun e ->
        let busy, idle, tasks, steals = track e in
        match e.e_ev with
        | "idle" -> idle := !idle +. e.e_dur
        | ev ->
          busy := !busy +. e.e_dur;
          if ev = "task" then incr tasks;
          if ev = "steal" then begin
            incr steals;
            steal_lat := e.e_dur :: !steal_lat
          end)
      evs;
    let workers =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare
    in
    let nw = List.length workers in
    let busy_of (_, (busy, _, _, _)) = !busy in
    let total_busy = List.fold_left (fun a w -> a +. busy_of w) 0. workers in
    let total_idle =
      List.fold_left (fun a (_, (_, idle, _, _)) -> a +. !idle) 0. workers
    in
    let mean_busy = total_busy /. float_of_int nw in
    let min_w, max_w =
      List.fold_left
        (fun (mn, mx) w ->
          ((if busy_of w < busy_of mn then w else mn),
           if busy_of w > busy_of mx then w else mx))
        (List.hd workers, List.hd workers)
        workers
    in
    let pct v = if makespan > 0. then 100. *. v /. makespan else 0. in
    let wname (l, w) = Printf.sprintf "%d/%d" l w in
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    line "load balance: %d workers, %d spans, makespan %ss\n\n" nw
      (List.length evs) (fsec makespan);
    Buffer.add_string buf
      (Table.render
         ~header:[ "worker"; "busy (s)"; "busy %"; "idle (s)"; "tasks"; "steals" ]
         (List.map
            (fun ((key, (busy, idle, tasks, steals)) : (int * int) * _) ->
              [ wname key; fsec !busy; fpct (pct !busy); fsec !idle;
                string_of_int !tasks; string_of_int !steals ])
            workers));
    Buffer.add_char buf '\n';
    line "busy: mean %ss, min %ss (worker %s), max %ss (worker %s)\n"
      (fsec mean_busy)
      (fsec (busy_of min_w))
      (wname (fst min_w))
      (fsec (busy_of max_w))
      (wname (fst max_w));
    line "imbalance (max/mean busy): %.3f\n"
      (if mean_busy > 0. then busy_of max_w /. mean_busy else 1.);
    let worker_time = makespan *. float_of_int nw in
    line "idle: total %ss (%s%% of %d x makespan)\n" (fsec total_idle)
      (fpct (if worker_time > 0. then 100. *. total_idle /. worker_time else 0.))
      nw;
    let lats = Array.of_list !steal_lat in
    Array.sort compare lats;
    let n = Array.length lats in
    if n > 0 then
      line "steal latency (s): n=%d p50=%s p90=%s p99=%s max=%s\n" n
        (fsec (Analyze.percentile 50. lats))
        (fsec (Analyze.percentile 90. lats))
        (fsec (Analyze.percentile 99. lats))
        (fsec lats.(n - 1))
    else line "steal latency (s): no steal events\n";
    Buffer.contents buf
  end

(* ----------------------------- report ----------------------------- *)

(* Per-span accumulator, keyed by the lease/task id space. [parent] is
   first-edge-wins: a replayed lease's [lease_replay] event (parent =
   the revoked original) lands in the journal before its re-issue, so
   the causal tree keeps the replay chained to the failed attempt. *)
type sp = {
  id : int;
  mutable sp_parent : int;
  mutable kind : string;
  mutable sp_loc : int;
  mutable self : float;
  mutable tasks : int;
  mutable ivs : (float * float) list;
  mutable revoked : bool;
}

let fmt_s f = Printf.sprintf "%.4f" f

(* Measure of [ivs minus covered] where both are interval sets; used
   to attribute critical-path time without double counting, which is
   what keeps the reported path total <= wall clock. *)
let union_sweep ivs =
  let sorted = List.sort compare ivs in
  let hi = ref neg_infinity in
  let total = ref 0. in
  let contrib =
    List.map
      (fun (s, e) ->
        let c = Float.max 0. (e -. Float.max s !hi) in
        hi := Float.max !hi e;
        total := !total +. c;
        c)
      sorted
  in
  (!total, List.combine sorted contrib)

let report_trace buf ~top tr entries =
  let spans : (int, sp) Hashtbl.t = Hashtbl.create 256 in
  let get id =
    match Hashtbl.find_opt spans id with
    | Some s -> s
    | None ->
      let s =
        {
          id;
          sp_parent = -1;
          kind = "?";
          sp_loc = -1;
          self = 0.;
          tasks = 0;
          ivs = [];
          revoked = false;
        }
      in
      Hashtbl.add spans id s;
      s
  in
  let root = get 0 in
  root.kind <- "job";
  let steal_wait = ref 0. in
  let idle = ref 0. in
  let drops = ref 0 in
  let wall = ref 0. in
  let t0 = ref infinity in
  let t1 = ref neg_infinity in
  let deaths = ref 0 in
  let replays = ref 0 in
  let psamples = ref [] in
  List.iter
    (fun e ->
      t0 := Float.min !t0 e.e_at;
      t1 := Float.max !t1 (e.e_at +. e.e_dur);
      let define kind =
        let s = get e.e_span in
        if s.kind = "?" || s.kind = "job" && e.e_span <> 0 then s.kind <- kind;
        if s.sp_parent < 0 && e.e_parent >= 0 && e.e_parent <> e.e_span then
          s.sp_parent <- e.e_parent;
        if s.sp_loc < 0 then s.sp_loc <- e.e_locality;
        s
      in
      match e.e_ev with
      | "job_start" -> ()
      | "job_done" -> if e.e_dur > 0. then wall := e.e_dur
      | "lease_issue" -> ignore (define "lease")
      | "spill" -> ignore (define "spill")
      | "spawn" -> ignore (define "spawn")
      | "lease_replay" ->
        incr replays;
        ignore (define "replay")
      | "lease_revoke" -> (get e.e_span).revoked <- true
      | "locality_dead" -> incr deaths
      | "task" ->
        let s = get e.e_span in
        s.self <- s.self +. e.e_dur;
        s.tasks <- s.tasks + 1;
        s.ivs <- (e.e_at, e.e_at +. e.e_dur) :: s.ivs;
        if s.sp_loc < 0 then s.sp_loc <- e.e_locality
      | "steal" -> steal_wait := !steal_wait +. e.e_dur
      | "idle" -> idle := !idle +. e.e_dur
      | "journal_drop" -> drops := !drops + e.e_value
      | "progress_sample" ->
        psamples := (e.e_at, e.e_value, e.e_note) :: !psamples
      | _ -> ())
    entries;
  if !wall <= 0. && !t1 > !t0 then wall := !t1 -. !t0;
  (* The span tree: orphans (no recorded parent) hang off the job span
     so every span is reachable from the root walk. *)
  let children : (int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let child_of p c =
    match Hashtbl.find_opt children p with
    | Some r -> r := c :: !r
    | None -> Hashtbl.add children p (ref [ c ])
  in
  Hashtbl.iter
    (fun id s ->
      if id <> 0 then
        child_of (if s.sp_parent >= 0 then s.sp_parent else 0) id)
    spans;
  let kids id =
    match Hashtbl.find_opt children id with Some r -> List.rev !r | None -> []
  in
  let totals = Hashtbl.create 256 in
  let rec total visiting id =
    match Hashtbl.find_opt totals id with
    | Some t -> t
    | None ->
      if List.mem id visiting then 0.
      else
        let visiting = id :: visiting in
        let t =
          List.fold_left
            (fun acc c -> Float.max acc (total visiting c))
            0. (kids id)
          +. (get id).self
        in
        Hashtbl.replace totals id t;
        t
  in
  ignore (total [] 0);
  (* Critical path: descend by heaviest subtree. *)
  let rec path acc id =
    let acc = id :: acc in
    match
      List.fold_left
        (fun best c ->
          let t = total [] c in
          match best with
          | Some (_, bt) when bt >= t -> best
          | _ -> Some (c, t))
        None (kids id)
    with
    | Some (c, t) when t > 0. -> path acc c
    | _ -> List.rev acc
  in
  let cpath = path [] 0 in
  let path_ivs =
    List.concat_map (fun id -> List.map (fun iv -> (iv, id)) (get id).ivs)
      cpath
  in
  let path_total, _ = union_sweep (List.map fst path_ivs) in
  (* Non-overlapping attribution per path span, walked root-down: each
     span contributes only time not already covered above it. *)
  let covered = ref [] in
  let path_rows =
    List.map
      (fun id ->
        let s = get id in
        let all = !covered @ s.ivs in
        let tot_all, _ = union_sweep all in
        let tot_cov, _ = union_sweep !covered in
        covered := all;
        (id, s, tot_all -. tot_cov))
      cpath
  in
  let compute = ref 0. in
  let wasted = ref 0. in
  Hashtbl.iter
    (fun _ s ->
      if s.revoked then wasted := !wasted +. s.self
      else compute := !compute +. s.self)
    spans;
  let accounted = !compute +. !wasted +. !steal_wait +. !idle in
  let n_spans = Hashtbl.length spans in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  line "trace %s: %d events, %d spans, wall %ss\n" tr (List.length entries)
    n_spans (fmt_s !wall);
  if !deaths > 0 || !replays > 0 then
    line "  faults: %d localit%s lost, %d lease(s) replayed\n" !deaths
      (if !deaths = 1 then "y" else "ies")
      !replays;
  if !drops > 0 then line "  journal events dropped at emitters: %d\n" !drops;
  line "  critical path: %ss over %d span(s) (wall %ss)\n" (fmt_s path_total)
    (List.length cpath) (fmt_s !wall);
  Buffer.add_string buf
    (Table.render
       ~header:[ "span"; "kind"; "loc"; "tasks"; "self (s)"; "path (s)" ]
       (List.map
          (fun (id, s, c) ->
            [
              string_of_int id;
              (s.kind ^ if s.revoked then " !" else "");
              (if s.sp_loc < 0 then "-" else string_of_int s.sp_loc);
              string_of_int s.tasks;
              fmt_s s.self;
              fmt_s c;
            ])
          path_rows));
  Buffer.add_char buf '\n';
  if accounted > 0. then begin
    let frac x = x /. accounted in
    line
      "  overhead breakdown (of %ss accounted worker time): compute %.3f, \
       replay-waste %.3f, steal-wait %.3f, idle %.3f (sum %.3f)\n"
      (fmt_s accounted) (frac !compute) (frac !wasted) (frac !steal_wait)
      (frac !idle)
      (frac (!compute +. !wasted +. !steal_wait +. !idle))
  end;
  (* Estimator convergence: how the completed fraction evolved over the
     run, from the periodic progress_sample events. At most 8 samples
     are shown, evenly spaced, always including the first and last. *)
  let ps = List.sort compare !psamples in
  if ps <> [] then begin
    let frac_of note =
      try Scanf.sscanf note "frac=%f" (fun f -> f) with _ -> Float.nan
    in
    let arr = Array.of_list ps in
    let n = Array.length arr in
    let shown = Int.min n 8 in
    let steps =
      List.init shown (fun i ->
          if shown = 1 then 0 else i * (n - 1) / (shown - 1))
    in
    let cell i =
      let at, nodes, note = arr.(i) in
      Printf.sprintf "%.0f%% @%ss (%d)" (100. *. frac_of note) (fmt_s at)
        nodes
    in
    line "  progress: %d sample(s): %s\n" n
      (String.concat " -> " (List.map cell steps))
  end;
  let by_self =
    Hashtbl.fold (fun _ s acc -> s :: acc) spans []
    |> List.filter (fun s -> s.self > 0.)
    |> List.sort (fun a b -> compare b.self a.self)
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  let topk = take top by_self in
  if topk <> [] then begin
    line "  top %d lease(s) by self time:\n" (List.length topk);
    Buffer.add_string buf
      (Table.render
         ~header:[ "span"; "kind"; "loc"; "parent"; "tasks"; "self (s)" ]
         (List.map
            (fun s ->
              [
                string_of_int s.id;
                (s.kind ^ if s.revoked then " !" else "");
                (if s.sp_loc < 0 then "-" else string_of_int s.sp_loc);
                (if s.sp_parent < 0 then "-" else string_of_int s.sp_parent);
                string_of_int s.tasks;
                fmt_s s.self;
              ])
            topk));
    Buffer.add_char buf '\n'
  end;
  line "  flame (self / subtree):\n";
  let rec flame depth id =
    let s = get id in
    line "  %s%d %s%s  %s / %s\n"
      (String.make (2 * depth) ' ')
      id s.kind
      (if s.revoked then " !" else "")
      (fmt_s s.self)
      (fmt_s (total [] id));
    if depth < 6 then begin
      let ks =
        kids id
        |> List.sort (fun a b -> compare (total [] b) (total [] a))
      in
      let shown = take 4 ks in
      List.iter (flame (depth + 1)) shown;
      let rest = List.length ks - List.length shown in
      if rest > 0 then
        line "  %s… %d more\n" (String.make (2 * (depth + 1)) ' ') rest
    end
  in
  flame 0 0;
  let emitted = Hashtbl.create 256 in
  Hashtbl.replace emitted 0 ();
  List.iter (fun e -> Hashtbl.replace emitted e.e_span ()) entries;
  let refs = List.filter (fun e -> e.e_parent >= 0) entries in
  let resolved =
    List.filter (fun e -> Hashtbl.mem emitted e.e_parent) refs
  in
  line "  causal links: %d/%d parent references resolve\n"
    (List.length resolved) (List.length refs);
  if List.exists (fun e -> e.e_worker >= 0) entries then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (load_balance entries)
  end

let report ?(top = 5) entries =
  let buf = Buffer.create 4096 in
  let order = ref [] in
  let traces = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt traces e.e_trace with
      | Some r -> r := e :: !r
      | None ->
        Hashtbl.add traces e.e_trace (ref [ e ]);
        order := e.e_trace :: !order)
    entries;
  Buffer.add_string buf
    (Printf.sprintf "journal: %d event(s), %d trace(s)\n" (List.length entries)
       (List.length !order));
  List.iter
    (fun tr ->
      Buffer.add_char buf '\n';
      report_trace buf ~top tr (List.rev !(Hashtbl.find traces tr)))
    (List.rev !order);
  Buffer.contents buf
