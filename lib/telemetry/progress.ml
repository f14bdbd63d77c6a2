module P = Yewpar_core.Progress

type report = {
  r_nodes : int;
  r_total : float;
  r_lo : float;
  r_hi : float;
  r_fraction : float;
  r_rate : float;
  r_eta : float;
  r_exact : bool;
}

let idle =
  { r_nodes = 0; r_total = 0.; r_lo = 0.; r_hi = 0.; r_fraction = 0.;
    r_rate = 0.; r_eta = -1.; r_exact = false }

type t = {
  mutable started : float;  (* nan until the first update *)
  mutable last_t : float;
  mutable last_nodes : int;
  mutable rate : float;  (* EWMA nodes/sec; 0 until measurable *)
  mutable hw : float;  (* high-water reported fraction *)
}

let create () =
  { started = Float.nan; last_t = Float.nan; last_nodes = 0; rate = 0.;
    hw = 0. }

(* Smoothing constant for the instantaneous-rate EWMA: heavy enough to
   ride out heartbeat jitter, light enough to track a phase change
   within a few samples. *)
let alpha = 0.3

let update t ?(final = false) ~now sample =
  if Float.is_nan t.started then t.started <- now;
  let e = P.estimate ~final sample in
  let nodes = e.P.e_nodes in
  (* Rate: EWMA of the inter-sample rate, seeded by (and falling back
     on) the whole-run cumulative rate. *)
  let cumulative =
    if now > t.started && nodes > 0 then
      float_of_int nodes /. (now -. t.started)
    else 0.
  in
  (if (not (Float.is_nan t.last_t)) && now > t.last_t then begin
     let inst =
       float_of_int (nodes - t.last_nodes) /. (now -. t.last_t)
     in
     if inst >= 0. then
       t.rate <-
         (if t.rate > 0. then (alpha *. inst) +. ((1. -. alpha) *. t.rate)
          else inst)
   end);
  t.last_t <- now;
  t.last_nodes <- nodes;
  let rate = if t.rate > 0. then t.rate else cumulative in
  (* The reported fraction is a high-water mark: fusing racy worker
     snapshots (or a heartbeat arriving out of order) may wobble the
     raw estimate, but reported progress never goes backwards. *)
  let fraction = max t.hw e.P.e_fraction in
  t.hw <- fraction;
  let eta =
    if final || fraction >= 1.0 then 0.
    else if rate > 0. && e.P.e_total > 0. then
      Float.max 0. ((e.P.e_total -. float_of_int nodes) /. rate)
    else -1.
  in
  { r_nodes = nodes; r_total = e.P.e_total; r_lo = e.P.e_lo;
    r_hi = e.P.e_hi; r_fraction = fraction; r_rate = rate; r_eta = eta;
    r_exact = e.P.e_exact }

(* The journal's [value] field is an int: a [progress_sample] event
   carries the rounded estimated total there and packs the rest into
   the note, so [analyze --journal] can recover the full series. *)
let journal_value r =
  if Float.is_finite r.r_total then int_of_float (Float.round r.r_total)
  else 0

let journal_note r =
  Printf.sprintf "frac=%.4f;nodes=%d;eta=%.1f" r.r_fraction r.r_nodes
    r.r_eta

let eta_string r =
  if r.r_eta < 0. then "-"
  else if r.r_eta < 1. then "<1s"
  else begin
    let s = int_of_float r.r_eta in
    if s < 60 then Printf.sprintf "%ds" s
    else if s < 3600 then Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
    else Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)
  end

let bar ~width r =
  let width = max 1 width in
  let filled =
    int_of_float (Float.round (r.r_fraction *. float_of_int width))
  in
  let filled = min width (max 0 filled) in
  String.concat ""
    [ "["; String.make filled '#'; String.make (width - filled) '.'; "]" ]
