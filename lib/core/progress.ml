(* Online tree-size estimation from per-depth progress tallies.

   The estimator is a stratified variant of Knuth's weighted-backtrack
   scheme: instead of random probes it consumes the complete per-depth
   record every worker already keeps ({!Depth_profile}): nodes
   processed, expansions completed, and kept children credited per
   depth. The size of stratum [d+1] is predicted from the observed
   branching of stratum [d]; chaining the predictions from the root
   yields an estimated total.

   Two regimes per stratum:

   - {e closed} (integer-exact): while every node of stratum [d] is
     both observed and completed, the kept-children tally IS the size
     of stratum [d+1] — integer arithmetic, no drift. At quiescence
     every stratum is closed, so the estimate equals the observed node
     count bit-exactly and the fraction is exactly 1.0.
   - {e open}: otherwise the mean branching factor
     [children_d / completed_d] extrapolates the chain in floats, with
     a confidence band from the sample variance of the kept-children
     counts, each bound propagated through its own chain.

   Every stratum estimate is floored at the nodes already observed
   there, so the fraction never exceeds 1. *)

type sample = {
  rows : int;  (** strata in use; arrays are at least this long *)
  nodes : int array;  (** nodes processed per depth *)
  completed : int array;  (** expansions completed per depth *)
  children : int array;  (** kept children credited per depth *)
  children_sq : float array;
      (** sum of squared kept-children counts, for the variance *)
}

let empty =
  { rows = 0; nodes = [||]; completed = [||]; children = [||];
    children_sq = [||] }

let of_profile p =
  let rows = Depth_profile.progress_depths p in
  if rows = 0 then empty
  else begin
    let nodes = Array.make rows 0 in
    let completed = Array.make rows 0 in
    let children = Array.make rows 0 in
    let children_sq = Array.make rows 0. in
    for d = 0 to rows - 1 do
      let n, c, k, sq = Depth_profile.progress_row p d in
      nodes.(d) <- n;
      completed.(d) <- c;
      children.(d) <- k;
      children_sq.(d) <- sq
    done;
    { rows; nodes; completed; children; children_sq }
  end

let merge a b =
  if a.rows = 0 then b
  else if b.rows = 0 then a
  else begin
    let rows = max a.rows b.rows in
    let geti arr d = if d < Array.length arr then arr.(d) else 0 in
    let getf arr d = if d < Array.length arr then arr.(d) else 0. in
    { rows;
      nodes = Array.init rows (fun d -> geti a.nodes d + geti b.nodes d);
      completed =
        Array.init rows (fun d -> geti a.completed d + geti b.completed d);
      children =
        Array.init rows (fun d -> geti a.children d + geti b.children d);
      children_sq =
        Array.init rows (fun d ->
            getf a.children_sq d +. getf b.children_sq d) }
  end

let observed s = Array.fold_left ( + ) 0 s.nodes

type estimate = {
  e_nodes : int;  (** nodes observed so far *)
  e_total : float;  (** estimated total tree size, >= [e_nodes] *)
  e_lo : float;  (** lower confidence bound on the total *)
  e_hi : float;  (** upper confidence bound on the total *)
  e_fraction : float;
      (** [e_nodes / e_total] clamped to [0, 1]; exactly 1.0 only at
          quiescence or when [final] was passed *)
  e_exact : bool;  (** every stratum was closed: the total is exact *)
}

let done_ ~nodes =
  let n = float_of_int nodes in
  { e_nodes = nodes; e_total = n; e_lo = n; e_hi = n; e_fraction = 1.0;
    e_exact = true }

(* The reported fraction is capped just under 1 while the run is live
   and the chain is inexact: floats flooring at the observed count can
   otherwise read 1.0 moments before quiescence. *)
let live_cap = 0.999

let estimate ?(final = false) s =
  let nodes = observed s in
  if final then done_ ~nodes
  else if s.rows = 0 || nodes = 0 then
    { e_nodes = nodes; e_total = 0.; e_lo = 0.; e_hi = 0.;
      e_fraction = 0.; e_exact = false }
  else if Array.fold_left ( + ) 0 s.completed = 0 then
    (* Nothing has finished expanding: no branching signal yet. *)
    { e_nodes = nodes; e_total = float_of_int nodes;
      e_lo = float_of_int nodes; e_hi = infinity; e_fraction = 0.;
      e_exact = false }
  else begin
    let nd d = if d < s.rows then s.nodes.(d) else 0 in
    let cd d = if d < s.rows then s.completed.(d) else 0 in
    let kd d = if d < s.rows then s.children.(d) else 0 in
    let sq d = if d < s.rows then s.children_sq.(d) else 0. in
    (* Chain state for stratum [d]. *)
    let exact = ref (nd 0 >= 1) in
    let n_int = ref (max (nd 0) 1) in
    let est = ref (float_of_int !n_int) in
    let lo = ref !est in
    let hi = ref !est in
    let tot = ref 0. and tot_lo = ref 0. and tot_hi = ref 0. in
    let d = ref 0 in
    let continue = ref true in
    while !continue do
      tot := !tot +. !est;
      tot_lo := !tot_lo +. !lo;
      tot_hi := !tot_hi +. !hi;
      let closed = !exact && !n_int = nd !d && cd !d = nd !d in
      if closed then begin
        n_int := max (nd (!d + 1)) (kd !d);
        est := float_of_int !n_int;
        lo := !est;
        hi := !est
      end
      else begin
        let c = cd !d in
        let beta, blo, bhi =
          if c > 0 then begin
            let b = float_of_int (kd !d) /. float_of_int c in
            let var =
              max 0. ((sq !d /. float_of_int c) -. (b *. b))
            in
            let stderr = sqrt (var /. float_of_int c) in
            (b, max 0. (b -. (1.96 *. stderr)), b +. (1.96 *. stderr))
          end
          else if nd !d > 0 && nd (!d + 1) > 0 then begin
            (* No completions at this depth yet: fall back on the
               observed stratum ratio, with a wide-open band. *)
            let b =
              float_of_int (nd (!d + 1)) /. float_of_int (nd !d)
            in
            (b, 0., infinity)
          end
          else (0., 0., 0.)
        in
        exact := false;
        let floor_n = float_of_int (nd (!d + 1)) in
        est := max floor_n (!est *. beta);
        lo := max floor_n (!lo *. blo);
        (* No signal is zero children, also below an open band's
           infinity ([infinity *. 0.] is [nan]). *)
        hi := max !est (if bhi = 0. then 0. else !hi *. bhi);
        n_int := nd (!d + 1)
      end;
      incr d;
      (* One stratum past the deepest observed row catches children
         already credited but not yet visited; beyond that the chain
         has no signal. *)
      if (!d >= s.rows && !est < 0.5) || !d > s.rows then
        continue := false
    done;
    let fnodes = float_of_int nodes in
    let total = max fnodes !tot in
    let lo = min total (max fnodes !tot_lo) in
    let hi = max total !tot_hi in
    let e_exact = !exact && !est < 0.5 in
    let fraction =
      if total <= 0. then 0.
      else if e_exact then (if fnodes >= total then 1.0 else fnodes /. total)
      else min live_cap (fnodes /. total)
    in
    { e_nodes = nodes; e_total = total; e_lo = lo; e_hi = hi;
      e_fraction = fraction; e_exact }
  end
