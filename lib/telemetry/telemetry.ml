type t = { mutable kept : Journal.event list (* newest first *) }

let create () = { kept = [] }

let ingest t ~locality ~offset evs =
  t.kept <-
    List.rev_append
      (List.map
         (fun (e : Journal.event) ->
           {
             e with
             Journal.locality =
               (if e.Journal.locality < 0 then locality else e.Journal.locality);
             t = e.Journal.t +. offset;
           })
         evs)
      t.kept

let events t =
  List.stable_sort
    (fun (a : Journal.event) b -> compare a.Journal.t b.Journal.t)
    (List.rev t.kept)

let dropped t =
  List.fold_left
    (fun acc (e : Journal.event) ->
      if e.Journal.ev = "journal_drop" then acc + e.Journal.value else acc)
    0 t.kept

(* The views below draw worker events only: the ones carrying a worker
   slot. Events without one (drop counts) feed {!dropped}. *)
let worker_events t =
  List.filter (fun (e : Journal.event) -> e.Journal.worker >= 0) (events t)

(* ------------------------- Chrome export ------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fus v = Printf.sprintf "%.3f" v  (* microseconds, ns precision *)

let origin = function [] -> 0. | (e : Journal.event) :: _ -> e.Journal.t

let to_chrome t =
  let evs = worker_events t in
  let t0 = origin evs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf ev
  in
  (* Metadata: name each locality (process) and worker (thread). *)
  let procs = Hashtbl.create 8 and threads = Hashtbl.create 32 in
  List.iter
    (fun (e : Journal.event) ->
      let l = e.Journal.locality and w = e.Journal.worker in
      if not (Hashtbl.mem procs l) then begin
        Hashtbl.add procs l ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"locality %d\"}}"
             l l)
      end;
      if not (Hashtbl.mem threads (l, w)) then begin
        Hashtbl.add threads (l, w) ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"worker %d\"}}"
             l w w)
      end)
    evs;
  List.iter
    (fun (e : Journal.event) ->
      let ts = fus ((e.Journal.t -. t0) *. 1e6) in
      let name = json_escape e.Journal.ev in
      let args =
        Printf.sprintf "\"pid\":%d,\"tid\":%d,\"args\":{\"span\":%d,\"value\":%d}"
          e.Journal.locality e.Journal.worker e.Journal.span e.Journal.value
      in
      if e.Journal.dur > 0. then
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"yewpar\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,%s}"
             name ts
             (fus (e.Journal.dur *. 1e6))
             args)
      else
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"yewpar\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,%s}"
             name ts args))
    evs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* -------------------------- CSV export --------------------------- *)

let to_csv t =
  let evs = worker_events t in
  let t0 = origin evs in
  (* Dense global worker ids, ordered by (locality, worker). *)
  let key (e : Journal.event) = (e.Journal.locality, e.Journal.worker) in
  let ids = Hashtbl.create 32 in
  List.iter (fun e -> Hashtbl.replace ids (key e) 0) evs;
  Hashtbl.fold (fun k _ acc -> k :: acc) ids []
  |> List.sort compare
  |> List.iteri (fun i k -> Hashtbl.replace ids k i);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "worker,start,duration,label\n";
  List.iter
    (fun (e : Journal.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.9f,%.9f,%s\n" (Hashtbl.find ids (key e))
           (e.Journal.t -. t0) e.Journal.dur e.Journal.ev))
    evs;
  Buffer.contents buf

(* ------------------------ derived metrics ------------------------ *)

let metrics t =
  let evs = worker_events t in
  let m = Metrics.create () in
  let c name help = Metrics.counter m ~help name in
  let tasks = c "yewpar_tasks_total" "Tasks executed." in
  let steals = c "yewpar_steals_total" "Successful steals (work obtained after a dry spell)." in
  let bounds = c "yewpar_bound_updates_total" "Incumbent improvements applied." in
  let drops =
    c "yewpar_trace_dropped_spans_total" "Events lost to ring-buffer overflow."
  in
  let localities = Metrics.gauge m ~help:"Localities traced." "yewpar_localities" in
  let workers = Metrics.gauge m ~help:"Worker tracks traced." "yewpar_workers" in
  let task_d =
    Metrics.histogram m ~help:"Task execution time (seconds)."
      "yewpar_task_duration_seconds"
  in
  let steal_d =
    Metrics.histogram m ~help:"Steal latency, dry pool to task in hand (seconds)."
      "yewpar_steal_latency_seconds"
  in
  let idle_d =
    Metrics.histogram m ~help:"Time blocked waiting for work (seconds)."
      "yewpar_idle_wait_seconds"
  in
  let locs = Hashtbl.create 8 and tracks = Hashtbl.create 32 in
  List.iter
    (fun (e : Journal.event) ->
      Hashtbl.replace locs e.Journal.locality ();
      Hashtbl.replace tracks (e.Journal.locality, e.Journal.worker) ();
      match e.Journal.ev with
      | "task" ->
        Metrics.inc tasks;
        Metrics.observe task_d e.Journal.dur
      | "steal" ->
        Metrics.inc steals;
        Metrics.observe steal_d e.Journal.dur
      | "idle" -> Metrics.observe idle_d e.Journal.dur
      | "bound" -> Metrics.inc bounds
      | _ -> ())
    evs;
  Metrics.inc drops ~by:(dropped t);
  Metrics.set localities (float_of_int (Hashtbl.length locs));
  Metrics.set workers (float_of_int (Hashtbl.length tracks));
  m

let to_prometheus t = Metrics.to_prometheus (metrics t)
