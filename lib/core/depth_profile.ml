(* Four parallel count arrays indexed by depth, grown on first touch of
   a deeper row. Single-writer; merged after the parallel join.

   Alongside sits an independently-switchable progress array feeding
   the tree-size estimator ({!Progress}). Its node counts are the
   [nodes] column, kept whenever either switch is on, so every node is
   counted once and progress estimation works when profiling is off. *)
type t = {
  on : bool;
  progress : bool;
  mutable last : int;
      (* depth of the last noted node, where [note_bound] buckets an
         improvement; written only when a switch is on, so [null] is
         never written *)
  mutable nlen : int;  (* rows with a node = deepest noted node + 1 *)
  mutable elen : int;  (* rows with a prune, spawn or bound *)
  mutable nodes : int array;
  mutable pruned : int array;
  mutable spawned : int array;
  mutable bounds : int array;
  mutable plen : int;  (* progress rows in use *)
  mutable prog : int array;
      (* progress columns, one stride-3 row per depth: expansions
         completed, kept children credited, sum of kept². A single flat
         int array keeps the per-leave hot path to one bounds check and
         co-locates a depth's counters on one cache line; kept² stays
         integer so the per-leave path never converts to float
         (variance is computed at sampling). *)
}

let stride = 3

let create ?(profiled = true) ?(progress = true) () =
  { on = profiled; progress; last = 0; nlen = 0; elen = 0; nodes = [||];
    pruned = [||]; spawned = [||]; bounds = [||]; plen = 0; prog = [||] }

let null =
  { on = false; progress = false; last = 0; nlen = 0; elen = 0; nodes = [||];
    pruned = [||]; spawned = [||]; bounds = [||]; plen = 0; prog = [||] }

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
  end

let reserve_event t d =
  reserve t d;
  if d >= t.elen then t.elen <- d + 1

let reserve_p t d =
  if stride * d >= Array.length t.prog then begin
    let rows = max 16 (max (d + 1) (2 * (Array.length t.prog / stride))) in
    let b = Array.make (stride * rows) 0 in
    Array.blit t.prog 0 b 0 (Array.length t.prog);
    t.prog <- b
  end;
  if d >= t.plen then t.plen <- d + 1

(* A guard of [stride * d + 2 < length prog] precedes every unsafe row
   access below — unsafe by construction, not by hope. *)
let[@inline] bump p i n = Array.unsafe_set p i (Array.unsafe_get p i + n)

let note_node t d =
  if d >= 0 && (t.on || t.progress) then begin
    reserve t d;
    if d >= t.nlen then t.nlen <- d + 1;
    t.nodes.(d) <- t.nodes.(d) + 1;
    t.last <- d
  end

(* The grow is kept out of line so the per-leave fast path is branches
   and stores only. *)
let note_complete_slow t d kept =
  reserve_p t d;
  let p = t.prog and i = stride * d in
  bump p i 1;
  bump p (i + 1) kept;
  bump p (i + 2) (kept * kept)

let note_complete t d kept =
  if t.progress && d >= 0 then begin
    let p = t.prog in
    let i = stride * d in
    if i + stride <= Array.length p then begin
      bump p i 1;
      bump p (i + 1) kept;
      bump p (i + 2) (kept * kept);
      if d >= t.plen then t.plen <- d + 1
    end
    else note_complete_slow t d kept
  end

let note_prune t d =
  if t.on && d >= 0 then begin
    reserve_event t d;
    t.pruned.(d) <- t.pruned.(d) + 1
  end

let note_spawn t d =
  if t.on && d >= 0 then begin
    reserve_event t d;
    t.spawned.(d) <- t.spawned.(d) + 1
  end

let note_bound t =
  if t.on then begin
    let d = t.last in
    reserve_event t d;
    t.bounds.(d) <- t.bounds.(d) + 1
  end

let depths t = max t.nlen t.elen

let row t d =
  if d < 0 || d >= depths t then (0, 0, 0, 0)
  else (t.nodes.(d), t.pruned.(d), t.spawned.(d), t.bounds.(d))

let sum a len =
  let s = ref 0 in
  for i = 0 to len - 1 do
    s := !s + a.(i)
  done;
  !s

let totals t =
  let n = depths t in
  (sum t.nodes n, sum t.pruned n, sum t.spawned n, sum t.bounds n)

let is_empty t =
  let n, p, s, b = totals t in
  n = 0 && p = 0 && s = 0 && b = 0

let merge acc s =
  let n = depths s in
  if (acc.on || acc.progress) && n > 0 then begin
    reserve acc (n - 1);
    acc.nlen <- max acc.nlen s.nlen;
    acc.elen <- max acc.elen s.elen;
    for d = 0 to n - 1 do
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
  end

let copy t =
  { on = t.on; progress = t.progress; last = t.last; nlen = t.nlen;
    elen = t.elen;
    nodes = Array.sub t.nodes 0 (Array.length t.nodes);
    pruned = Array.sub t.pruned 0 (Array.length t.pruned);
    spawned = Array.sub t.spawned 0 (Array.length t.spawned);
    bounds = Array.sub t.bounds 0 (Array.length t.bounds);
    plen = t.plen;
    prog = Array.sub t.prog 0 (Array.length t.prog) }

(* [elen] is left out so the progress view's extent does not depend on
   profiling. *)
let progress_depths t = if t.progress then max t.plen t.nlen else 0

(* Racy cross-domain snapshot of one progress row: take local refs
   first, then bounds-check each against the array actually grabbed, so
   a concurrent growth can at worst hide the newest row. *)

let progress_row t d =
  let a = t.nodes and p = t.prog in
  let get a i = if i < Array.length a then a.(i) else 0 in
  if d < 0 then (0, 0, 0, 0.)
  else begin
    let i = stride * d in
    (get a d, get p i, get p (i + 1), float_of_int (get p (i + 2)))
  end

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "depth,nodes,pruned,spawned,bound_updates\n";
  for d = 0 to depths t - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%d,%d,%d\n" d t.nodes.(d) t.pruned.(d)
         t.spawned.(d) t.bounds.(d))
  done;
  Buffer.contents buf

let pp ppf t =
  let rows =
    List.init (depths t) (fun d ->
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
