type kind = Task | Steal | Idle | Bound | Spawn

let kind_name = function
  | Task -> "task"
  | Steal -> "steal"
  | Idle -> "idle"
  | Bound -> "bound"
  | Spawn -> "spawn"

let kind_tag = function Task -> 0 | Steal -> 1 | Idle -> 2 | Bound -> 3 | Spawn -> 4
let kinds = [| Task; Steal; Idle; Bound; Spawn |]

let default_capacity = 65536

(* Flat parallel arrays of [slots = capacity + 1] entries, index n in
   slot [n mod slots]: recording is six stores and one atomic publish,
   never an allocation. The spare slot is the one the writer may be
   filling while a drainer copies, so [capacity] published entries
   always survive a concurrent drain. [last] enforces per-recorder
   monotonicity; [read] and [lost] belong to the (single) drainer. *)
type t = {
  w : int;
  cap : int;
  slots : int;
  tags : int array;
  spans : int array;
  parents : int array;
  starts : float array;
  durs : float array;
  values : int array;
  total : int Atomic.t;
  mutable last : float;
  mutable read : int;
  mutable lost : int;
}

let make ~cap ~worker =
  let slots = if cap = 0 then 0 else cap + 1 in
  {
    w = worker;
    cap;
    slots;
    tags = Array.make slots 0;
    spans = Array.make slots 0;
    parents = Array.make slots 0;
    starts = Array.make slots 0.;
    durs = Array.make slots 0.;
    values = Array.make slots 0;
    total = Atomic.make 0;
    last = 0.;
    read = 0;
    lost = 0;
  }

let create ?(capacity = default_capacity) ~worker () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  make ~cap:capacity ~worker

let null = make ~cap:0 ~worker:(-1)
let enabled t = t.cap > 0
let clock = Unix.gettimeofday

let now t =
  if t.cap = 0 then 0.
  else begin
    let c = clock () in
    if c > t.last then t.last <- c;
    t.last
  end

let record t k ~span ~parent ~start ~dur ~value =
  if t.cap > 0 then begin
    let n = Atomic.get t.total in
    let i = n mod t.slots in
    t.tags.(i) <- kind_tag k;
    t.spans.(i) <- span;
    t.parents.(i) <- parent;
    t.starts.(i) <- start;
    t.durs.(i) <- (if dur < 0. then 0. else dur);
    t.values.(i) <- value;
    Atomic.set t.total (n + 1)
  end

let span t k ~span ~start ~value =
  if t.cap > 0 then
    record t k ~span ~parent:(-1) ~start ~dur:(now t -. start) ~value

let instant t k ~span ~value =
  if t.cap > 0 then record t k ~span ~parent:(-1) ~start:(now t) ~dur:0. ~value

let recorded t = Atomic.get t.total

let dropped t =
  if t.cap = 0 then 0 else t.lost + max 0 (Atomic.get t.total - t.read - t.cap)

let drain ?(locality = -1) t =
  if t.cap = 0 then []
  else begin
    let total = Atomic.get t.total in
    let from = max t.read (total - t.cap) in
    let copy n =
      let i = n mod t.slots in
      {
        Journal.ev = kind_name kinds.(t.tags.(i));
        span = t.spans.(i);
        parent = t.parents.(i);
        locality;
        worker = t.w;
        t = t.starts.(i);
        dur = t.durs.(i);
        value = t.values.(i);
        note = "";
      }
    in
    let evs = List.init (total - from) (fun j -> copy (from + j)) in
    (* Entries the writer lapped while we copied may be torn: keep only
       those still inside the window after the copy, and count the rest
       as drops. *)
    let safe = Atomic.get t.total - t.cap in
    let torn = max 0 (min total safe - from) in
    t.lost <- t.lost + (from - t.read) + torn;
    t.read <- total;
    List.filteri (fun j _ -> j >= torn) evs
  end
