(* Order statistics and interval arithmetic used by every workload.

   The benchmark reports a timing as its median and as the highest
   percentile that still has at least ten samples beyond it, so a
   "tail" is never read off a handful of calls. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, on a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

type tail = {
  value : float;  (** The sample at the tail percentile. *)
  pct : float;  (** Its percentile: share of samples at or below it. *)
  samples : int;  (** How many samples the tail was read from. *)
  beyond : int;  (** Samples strictly above the reported rank. *)
}

(* The highest rank with at least [beyond] samples above it. With fewer
   than [beyond + 1] samples no rank qualifies and the maximum is
   returned with [beyond] set to 0, so a caller can say so. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; pct = nan; samples = 0; beyond = 0 }
  else if n <= beyond then
    { value = a.(n - 1); pct = 100.; samples = n; beyond = 0 }
  else
    let k = n - 1 - beyond in
    {
      value = a.(k);
      pct = 100. *. float_of_int (k + 1) /. float_of_int n;
      samples = n;
      beyond;
    }

(* Samples in groups, one group per input. A pooled median of inputs
   of different sizes sits in the gap between their clusters and jumps
   with small changes; these summaries take each group's median
   first. [group_p50] is the mean of the group medians: the median
   call of a typical input. *)
let group_p50 groups =
  match List.filter (fun g -> g <> []) groups with
  | [] -> nan
  | gs -> List.fold_left (fun a g -> a +. median g) 0. gs /. float_of_int (List.length gs)

(* The tail rule over the pooled samples, each divided by its group's
   median, scaled back by [group_p50]: how slow the slow calls of a
   typical input are. *)
let group_tail ?beyond groups =
  let ratios =
    List.concat_map
      (fun g ->
        let m = median g in
        List.map (fun x -> x /. m) g)
      (List.filter (fun g -> g <> []) groups)
  in
  let t = tail ?beyond ratios in
  { t with value = t.value *. group_p50 groups }

(* Length of [start, stop] covered by the union of [intervals], each
   clipped to the window first. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it that its
   children's spans cover (overlapping children count once). *)
let self_time ~start ~stop children =
  Float.max 0. (stop -. start -. covered ~start ~stop children)

let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b = 0. then 0. else a /. b
