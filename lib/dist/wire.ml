type msg =
  | Task of { parent : int; depth : int; priority : int; payload : string }
  | Steal_request
  | Steal_reply of { task : (int * int * string) option }
  | Bound_update of { value : int; witness : string option }
  | Witness of { value : int; payload : string }
  | Idle of { retired : (int * string) list }
  | Ping
  | Pong
  | Heartbeat of {
      clock : float;
      tasks_done : int;
      pool_depth : int;
      idle_workers : int;
      idle_frac : float;
      best : int;
      trace_dropped : int;
      nodes : int;
      progress : Yewpar_core.Progress.sample;
          (* cumulative per-depth estimator columns: the coordinator
             replaces (never sums) a locality's previous sample, so
             fusion across localities cannot double-count *)
      events : Yewpar_telemetry.Journal.event list;
    }
  | Report of {
      residual : string option;
      stats : Yewpar_core.Stats.t;
      clock : float;
      events : Yewpar_telemetry.Journal.event list;
    }
  | Failed of { message : string }
  | Shutdown
  | Job_start of { instance : string; skeleton : string; job : int }
  | Quit

let header_size = 4

(* Frames carry whole encoded subtrees, but never anywhere near this. *)
let max_frame = 1 lsl 28

let to_bytes m =
  let payload = Marshal.to_string m [] in
  let n = String.length payload in
  if n > max_frame then failwith "Wire.to_bytes: oversized frame";
  let b = Bytes.create (header_size + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_size n;
  b

(* [buf.[0..len)] holds the unconsumed byte stream. *)
type decoder = { mutable buf : bytes; mutable len : int }

let decoder () = { buf = Bytes.create 256; len = 0 }

let pending d = d.len

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Wire.feed";
  if Bytes.length d.buf < d.len + len then begin
    let nb = Bytes.create (max (d.len + len) (2 * Bytes.length d.buf)) in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end;
  Bytes.blit src off d.buf d.len len;
  d.len <- d.len + len

let next d =
  if d.len < header_size then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be d.buf 0) in
    if n < 0 || n > max_frame then failwith "Wire.next: corrupt frame length";
    if d.len < header_size + n then None
    else begin
      let payload = Bytes.sub_string d.buf header_size n in
      let rest = d.len - header_size - n in
      Bytes.blit d.buf (header_size + n) d.buf 0 rest;
      d.len <- rest;
      Some (Marshal.from_string payload 0 : msg)
    end
  end
