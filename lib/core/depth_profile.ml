(* Four parallel count arrays indexed by depth, grown on first touch of
   a deeper row. Single-writer; merged after the parallel join.

   Alongside the profile proper sits an independently-switchable set of
   progress arrays feeding the tree-size estimator ({!Progress}): nodes
   processed, expansions completed and kept children credited per
   depth. They are kept separate from [on] so progress estimation works
   when profiling is off, and can be disabled alone for overhead A/B
   runs. *)
type t = {
  on : bool;
  progress : bool;
  mutable last : int;
      (* depth of the last noted node, where [note_bound] buckets an
         improvement; written only when [on], so [null] is never
         written *)
  mutable len : int;  (* rows in use = deepest recorded depth + 1 *)
  mutable nodes : int array;
  mutable pruned : int array;
  mutable spawned : int array;
  mutable bounds : int array;
  mutable plen : int;  (* progress rows in use *)
  mutable prog : int array;
      (* progress columns, one stride-4 row per depth: nodes processed,
         expansions completed, kept children credited, sum of kept².
         A single flat int array keeps the per-node hot path to one
         bounds check and co-locates a depth's four counters on one
         cache line; kept² stays integer so the per-leave path never
         converts to float (variance is computed at sampling). *)
}

let stride = 4

let create ?(profiled = true) ?(progress = true) () =
  { on = profiled; progress; last = 0; len = 0; nodes = [||]; pruned = [||];
    spawned = [||]; bounds = [||]; plen = 0; prog = [||] }

let null =
  { on = false; progress = false; last = 0; len = 0; nodes = [||]; pruned = [||];
    spawned = [||]; bounds = [||]; plen = 0; prog = [||] }

let enabled t = t.on

let grow a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let reserve t d =
  if d >= Array.length t.nodes then begin
    let n = max 16 (max (d + 1) (2 * Array.length t.nodes)) in
    t.nodes <- grow t.nodes n;
    t.pruned <- grow t.pruned n;
    t.spawned <- grow t.spawned n;
    t.bounds <- grow t.bounds n
  end;
  if d >= t.len then t.len <- d + 1

let reserve_p t d =
  if stride * d >= Array.length t.prog then begin
    let rows = max 16 (max (d + 1) (2 * (Array.length t.prog / stride))) in
    let b = Array.make (stride * rows) 0 in
    Array.blit t.prog 0 b 0 (Array.length t.prog);
    t.prog <- b
  end;
  if d >= t.plen then t.plen <- d + 1

(* A guard of [stride * d + 3 < length prog] precedes every unsafe row
   access below — unsafe by construction, not by hope. *)
let[@inline] bump p i n = Array.unsafe_set p i (Array.unsafe_get p i + n)

(* When profiling is on, the progress view reads node counts straight
   from the profile's [nodes] column instead of duplicating the bump
   here: per-node progress cost in a profiled run is then confined to
   the completion record at Leave. The dedicated column in [prog] is
   only maintained when profiling is off. *)
let note_node t d =
  if d >= 0 then
    if t.on then begin
      reserve t d;
      t.nodes.(d) <- t.nodes.(d) + 1;
      t.last <- d
    end
    else if t.progress then begin
      reserve_p t d;
      bump t.prog (stride * d) 1
    end

(* The grow is kept out of line so the per-leave fast path is branches
   and stores only. *)
let note_complete_slow t d kept =
  reserve_p t d;
  let p = t.prog and i = stride * d in
  bump p (i + 1) 1;
  bump p (i + 2) kept;
  bump p (i + 3) (kept * kept)

let note_complete t d kept =
  if t.progress && d >= 0 then begin
    let p = t.prog in
    let i = stride * d in
    if i + stride <= Array.length p then begin
      bump p (i + 1) 1;
      bump p (i + 2) kept;
      bump p (i + 3) (kept * kept);
      if d >= t.plen then t.plen <- d + 1
    end
    else note_complete_slow t d kept
  end

let note_prune t d =
  if t.on && d >= 0 then begin
    reserve t d;
    t.pruned.(d) <- t.pruned.(d) + 1
  end

let note_spawn t d =
  if t.on && d >= 0 then begin
    reserve t d;
    t.spawned.(d) <- t.spawned.(d) + 1
  end

let note_bound t =
  if t.on then begin
    let d = t.last in
    reserve t d;
    t.bounds.(d) <- t.bounds.(d) + 1
  end

let depths t = t.len

let row t d =
  if d < 0 || d >= t.len then (0, 0, 0, 0)
  else (t.nodes.(d), t.pruned.(d), t.spawned.(d), t.bounds.(d))

let sum a len =
  let s = ref 0 in
  for i = 0 to len - 1 do
    s := !s + a.(i)
  done;
  !s

let totals t =
  (sum t.nodes t.len, sum t.pruned t.len, sum t.spawned t.len,
   sum t.bounds t.len)

let is_empty t =
  let n, p, s, b = totals t in
  n = 0 && p = 0 && s = 0 && b = 0

let merge acc s =
  if acc.on && s.len > 0 then begin
    reserve acc (s.len - 1);
    for d = 0 to s.len - 1 do
      acc.nodes.(d) <- acc.nodes.(d) + s.nodes.(d);
      acc.pruned.(d) <- acc.pruned.(d) + s.pruned.(d);
      acc.spawned.(d) <- acc.spawned.(d) + s.spawned.(d);
      acc.bounds.(d) <- acc.bounds.(d) + s.bounds.(d)
    done
  end;
  if acc.progress && s.plen > 0 then begin
    reserve_p acc (s.plen - 1);
    for j = 0 to (stride * s.plen) - 1 do
      acc.prog.(j) <- acc.prog.(j) + s.prog.(j)
    done
  end;
  (* Node counts live in whichever column the recording side used
     (profile [nodes] when profiling, [prog] otherwise); when the two
     sides disagree, fold the source into the accumulator's view. *)
  if acc.progress && not acc.on && s.on && s.len > 0 then begin
    reserve_p acc (s.len - 1);
    for d = 0 to s.len - 1 do
      acc.prog.(stride * d) <- acc.prog.(stride * d) + s.nodes.(d)
    done
  end;
  if acc.on && not s.on && s.progress && s.plen > 0 then begin
    reserve acc (s.plen - 1);
    for d = 0 to s.plen - 1 do
      acc.nodes.(d) <- acc.nodes.(d) + s.prog.(stride * d)
    done
  end

let copy t =
  { on = t.on; progress = t.progress; last = t.last; len = t.len;
    nodes = Array.sub t.nodes 0 (Array.length t.nodes);
    pruned = Array.sub t.pruned 0 (Array.length t.pruned);
    spawned = Array.sub t.spawned 0 (Array.length t.spawned);
    bounds = Array.sub t.bounds 0 (Array.length t.bounds);
    plen = t.plen;
    prog = Array.sub t.prog 0 (Array.length t.prog) }

(* Racy cross-domain snapshot of one progress row: take local refs
   first, then bounds-check each against the array actually grabbed, so
   a concurrent [reserve_p] growth can at worst hide the newest row. *)
let progress_depths t =
  if not t.progress then 0 else if t.on then max t.plen t.len else t.plen

let progress_row t d =
  let p = t.prog in
  let get i = if i >= 0 && i < Array.length p then p.(i) else 0 in
  if d < 0 then (0, 0, 0, 0.)
  else begin
    let i = stride * d in
    let n =
      if t.on then
        let a = t.nodes in
        if d < Array.length a then a.(d) else 0
      else get i
    in
    (n, get (i + 1), get (i + 2), float_of_int (get (i + 3)))
  end

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "depth,nodes,pruned,spawned,bound_updates\n";
  for d = 0 to t.len - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%d,%d,%d\n" d t.nodes.(d) t.pruned.(d)
         t.spawned.(d) t.bounds.(d))
  done;
  Buffer.contents buf

let pp ppf t =
  let rows =
    List.init t.len (fun d ->
        [ string_of_int d; string_of_int t.nodes.(d);
          string_of_int t.pruned.(d); string_of_int t.spawned.(d);
          string_of_int t.bounds.(d) ])
  in
  let n, p, s, b = totals t in
  let rows =
    rows
    @ [ [ "total"; string_of_int n; string_of_int p; string_of_int s;
          string_of_int b ] ]
  in
  Format.pp_print_string ppf
    (Yewpar_util.Table.render
       ~header:[ "depth"; "nodes"; "pruned"; "spawned"; "bounds" ]
       rows)
