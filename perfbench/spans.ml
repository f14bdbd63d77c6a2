(* The benchmark's own span recorder.

   Spans are recorded around the benchmark's calls into each layer of
   the library (never inside it): a name, a start, an end and the span
   that caused it. They stay in memory while the run measures and are
   written out as JSON lines when it ends. A disabled recorder costs
   one branch per call site, which is what untraced runs use. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  enabled : bool;
  mutable next : int;
  mutable spans : span list;
  mu : Mutex.t;
}

let create ~enabled = { enabled; next = 1; spans = []; mu = Mutex.create () }
let now = Unix.gettimeofday

(* Record an already-measured interval (e.g. one read from server
   timestamps) and return its id; 0 when disabled. *)
let add t ?(parent = 0) name ~start ~stop =
  if not t.enabled then 0
  else
    Mutex.protect t.mu (fun () ->
        let id = t.next in
        t.next <- id + 1;
        t.spans <- { id; parent; name; start; stop } :: t.spans;
        id)

(* Run [f] inside a span; [f] receives the span id to parent its own
   children on. The id is reserved before [f] runs so children can
   name it. *)
let wrap t ?(parent = 0) name f =
  if not t.enabled then f 0
  else begin
    let id =
      Mutex.protect t.mu (fun () ->
          let id = t.next in
          t.next <- id + 1;
          id)
    in
    let start = now () in
    let record () =
      let stop = now () in
      Mutex.protect t.mu (fun () ->
          t.spans <- { id; parent; name; start; stop } :: t.spans)
    in
    match f id with
    | r ->
      record ();
      r
    | exception e ->
      record ();
      raise e
  end

let all t = Mutex.protect t.mu (fun () -> List.rev t.spans)
let named t name = List.filter (fun s -> s.name = name) (all t)

(* Self time of [s] among the recorded spans. *)
let self_time t s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None)
      (all t)
  in
  Measure.self_time ~start:s.start ~stop:s.stop kids

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.start s.stop)
    (all t);
  close_out oc
