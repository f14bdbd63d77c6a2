(* Tests of the benchmark's own statistics: the median, the
   tail-percentile rule and span self time. *)

open Perfbench_measure

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let floats n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* Median: middle element, mean of the middle pair, order-free. *)
  check "median odd" (close (Measure.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Measure.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median single" (close (Measure.median [ 7. ]) 7.);
  check "median empty is nan" (Float.is_nan (Measure.median []));
  (* Quartiles interpolate like statistics.quantiles(method="inclusive"). *)
  let a = Measure.sorted (floats 10) in
  check "q1" (close (Measure.quantile_sorted a 0.25) 3.25);
  check "q3" (close (Measure.quantile_sorted a 0.75) 7.75)

let () =
  (* Tail: the highest rank with at least ten samples beyond it. *)
  let t = Measure.tail (List.rev (floats 100)) in
  check "tail of 100 is p90" (close t.Measure.value 90. && close t.Measure.pct 90.);
  check "tail keeps ten beyond" (t.Measure.beyond = 10 && t.Measure.samples = 100);
  let t = Measure.tail (floats 11) in
  check "tail of 11 is the minimum" (close t.Measure.value 1.);
  let t = Measure.tail (floats 25) in
  check "tail of 25 is p60" (close t.Measure.value 15. && close t.Measure.pct 60.);
  (* Fewer than eleven samples: no rank qualifies; the maximum is
     returned and flagged with beyond = 0. *)
  let t = Measure.tail (floats 10) in
  check "short tail falls back to max" (close t.Measure.value 10. && t.Measure.beyond = 0)

let () =
  (* Grouped summaries: medians per group first. *)
  let small = [ 1.; 1.1; 0.9 ] and big = [ 10.; 11.; 9.; 10.5 ] in
  check "group p50 is the mean of group medians"
    (close (Measure.group_p50 [ small; big; [] ]) ((1. +. 10.25) /. 2.));
  let g1 = floats 60 and g2 = List.map (fun x -> 10. *. x) (floats 60) in
  let t = Measure.group_tail [ g1; g2 ] in
  (* Both groups normalise to the same ratios k / 30.5; 120 pooled
     samples put the tail at rank 110, ratio 55 / 30.5. *)
  check "group tail pools normalised samples"
    (t.Measure.samples = 120
    && close t.Measure.value (55. /. 30.5 *. Measure.group_p50 [ g1; g2 ]))

let () =
  (* Self time: the span minus the union of its children, clipped. *)
  check "no children" (close (Measure.self_time ~start:0. ~stop:10. []) 10.);
  check "disjoint children"
    (close (Measure.self_time ~start:0. ~stop:10. [ (1., 2.); (5., 8.) ]) 6.);
  check "overlapping children count once"
    (close (Measure.self_time ~start:0. ~stop:10. [ (1., 4.); (3., 6.); (2., 5.) ]) 5.);
  check "children clipped to the span"
    (close (Measure.self_time ~start:0. ~stop:10. [ (-5., 2.); (9., 20.) ]) 7.);
  check "nested children"
    (close (Measure.self_time ~start:0. ~stop:10. [ (1., 9.); (2., 3.) ]) 2.);
  (* The same rule through the span recorder. *)
  let t = Spans.create ~enabled:true in
  let job = Spans.add t "job" ~start:100. ~stop:110. in
  ignore (Spans.add t ~parent:job "run" ~start:103. ~stop:110.);
  ignore (Spans.add t "other" ~start:100. ~stop:110.);
  let s = List.hd (Spans.named t "job") in
  check "span self time" (close (Spans.self_time t s) 3.);
  let off = Spans.create ~enabled:false in
  check "disabled recorder keeps nothing"
    (Spans.add off "x" ~start:0. ~stop:1. = 0 && Spans.all off = [])

let () =
  if !failures > 0 then exit 1;
  print_endline "perfbench statistics: ok"
