(* Timed, checked calls into the library's public entry points.

   Each call reads the wall clock and the minor-word counter around
   the call only, normalises its time to a reference machine speed
   (below), checks the answer (and, for exact trees, the node count)
   against the input's oracle, and returns [None] when the call
   failed, so a failed call never contributes a timing. *)

module Coordination = Yewpar_core.Coordination
module Sequential = Yewpar_core.Sequential
module Stats = Yewpar_core.Stats
module Shm = Yewpar_par.Shm

type sample = {
  secs : float;  (** Wall seconds, normalised to the reference speed. *)
  raw : float;  (** Wall seconds as measured. *)
  nodes : int;
  words : float;  (** Minor words allocated during the call. *)
  stats : Stats.t;
}

let now = Spans.now
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Machine speed. The host this benchmark runs on changes speed by up
   to half from one second to the next (shared cores, frequency), far
   more than the effects it must resolve. So every timed call runs
   between two probes of a fixed compute kernel that uses no library
   code and allocates nothing, and its time is scaled by
   [reference_s / probe]: the seconds the call would take on a machine
   where the kernel takes exactly [reference_s]. A slower library
   still reads slower; a slower host does not. *)
let reference_s = 0.001

let rec kernel_queens n row cols d1 d2 =
  if row = n then 1
  else
    let rec go avail acc =
      if avail = 0 then acc
      else
        let bit = avail land -avail in
        go (avail lxor bit)
          (acc
          + kernel_queens n (row + 1) (cols lor bit)
              ((d1 lor bit) lsl 1)
              ((d2 lor bit) lsr 1))
    in
    go (lnot (cols lor d1 lor d2) land ((1 lsl n) - 1)) 0

let kernel () =
  ignore (Sys.opaque_identity (kernel_queens (Sys.opaque_identity 10) 0 0 0 0));
  ignore (Sys.opaque_identity (kernel_queens (Sys.opaque_identity 10) 0 0 0 0))

let probe () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* The factor that normalises a span timed between probes [before]
   and [after]. *)
let speed_factor before after = reference_s /. ((before +. after) /. 2.)

(* [f ()] timed and normalised; returns the result, normalised and raw
   seconds. *)
let normalised f =
  let before = probe () in
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  (r, raw *. speed_factor before (probe ()), raw)

(* What the one-domain probe cannot see. When other load on the host
   takes one of its two cores, every stop-the-world minor collection
   of a 2-worker call waits for the domain that lost its core, and the
   call slows four- to fivefold while the one-domain probe barely
   moves. This gauge runs the kernel on two domains at once, both
   allocating, and returns its time over the one-domain probe's: the
   median of five, about 6 on a quiet host and 20 or more when a core
   is taken. It is printed, not used to scale anything. *)
let churn () =
  let r = ref [] in
  for i = 1 to 600_000 do
    r := i :: !r;
    if i land 1023 = 0 then r := []
  done;
  ignore (Sys.opaque_identity !r);
  kernel ();
  kernel ();
  kernel ()

let contention () =
  Measure.median
    (List.init 5 (fun _ ->
         let one = probe () in
         let t0 = now () in
         let d = Domain.spawn churn in
         churn ();
         Domain.join d;
         (now () -. t0) /. one))

(* Something run around each timed call, inside its timed interval:
   a benchmark span on traced rungs, so what tracing costs is timed
   with the call. *)
type around = { around : 'a. (unit -> 'a) -> 'a }

let bare = { around = (fun f -> f ()) }

let timed ~around f =
  let w0 = minor_words () in
  let r, secs, raw = normalised (fun () -> around.around f) in
  (r, secs, raw, minor_words () -. w0)

(* Normalised nanoseconds per call of [f]: the median of five timings
   of about 10 ms of calls each. *)
let ns_per_call f =
  let batch reps =
    let (), secs, _ =
      normalised (fun () ->
          for _ = 1 to reps do
            f ()
          done)
    in
    secs *. 1e9 /. float_of_int reps
  in
  let reps = max 1 (int_of_float (1e7 /. Float.max (batch 100) 1.)) in
  Measure.median (List.init 5 (fun _ -> batch reps))

(* A search entry point, polymorphic over the problem it runs. *)
type runner = {
  run : 's 'n 'r. ('s, 'n, 'r) Yewpar_core.Problem.t -> Stats.t -> 'r;
}

let checked ?(around = bare) rep what (Inputs.Input i) runner =
  Report.checked rep
    (i.label ^ " " ^ what)
    (fun () ->
      let st = Stats.create () in
      let r, secs, raw, words = timed ~around (fun () -> runner.run i.problem st) in
      let verdict =
        match i.verify r with
        | Some _ as e -> e
        | None when i.exact && st.Stats.nodes <> i.nodes ->
          Some (Printf.sprintf "%d nodes, oracle %d" st.Stats.nodes i.nodes)
        | None -> None
      in
      ({ secs; raw; nodes = st.Stats.nodes; words; stats = st }, verdict))

let seq ?around rep input =
  checked ?around rep "seq" input { run = (fun p stats -> Sequential.search ~stats p) }

let shm ?around rep ~workers ~coordination ?progress ?telemetry input =
  checked ?around rep
    (Printf.sprintf "shm%d" workers)
    input
    { run = (fun p stats -> Shm.run ~workers ~stats ?progress ?telemetry ~coordination p) }

(* Mc.Specialised has no node counter: its sample reuses the oracle's
   node count, the tree Sequential walks for the same answer. *)
let spec ?(around = bare) rep (Inputs.Input i) =
  match i.spec with
  | None -> None
  | Some run ->
    Report.checked rep (i.label ^ " spec") (fun () ->
        let r, secs, raw, words = timed ~around run in
        ({ secs; raw; nodes = i.nodes; words; stats = Stats.create () }, r))

let secs s = s.secs
let raw s = s.raw
let nodes s = float_of_int s.nodes
let words s = s.words

(* Timed samples by (operation, input index), summarised the one way
   every workload reports them: per-input medians first, then summed
   across inputs, so inputs of different sizes never put a pooled
   median between their clusters. *)
module Table = struct
  type 'op t = ('op * int, sample list) Hashtbl.t

  let create () : 'op t = Hashtbl.create 16

  let add t key s =
    Hashtbl.replace t key (s :: Option.value ~default:[] (Hashtbl.find_opt t key))

  let get t key = Option.value ~default:[] (Hashtbl.find_opt t key)

  let count t op =
    Hashtbl.fold (fun (o, _) ss n -> if o = op then n + List.length ss else n) t 0

  (* The samples of [op], one list per input that has any. *)
  let groups t op ~inputs =
    List.filter_map
      (fun idx -> match get t (op, idx) with [] -> None | ss -> Some ss)
      (List.init inputs Fun.id)

  let med t f op idx =
    match get t (op, idx) with
    | [] -> None
    | ss -> Some (Measure.median (List.map f ss))

  (* Sum over inputs of the median of [f] on [op]. *)
  let total t ~inputs f op =
    Measure.sum (List.filter_map (med t f op) (List.init inputs Fun.id))

  (* Sum of per-input medians of [f_a] on [op_a] over the same sum for
     [f_b] on [op_b], over the inputs that have both. *)
  let sum_ratio t ~inputs (op_a, f_a) (op_b, f_b) =
    let pairs =
      List.filter_map
        (fun idx ->
          match (med t f_a op_a idx, med t f_b op_b idx) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
        (List.init inputs Fun.id)
    in
    Measure.ratio (Measure.sum (List.map fst pairs)) (Measure.sum (List.map snd pairs))
end

(* OCaml 5 folds a domain's allocation counters into the process
   totals when the domain terminates; minor_words_per_node on 2-worker
   calls relies on it. Check it on this compiler before trusting it:
   a joined domain that conses [n] list cells must show at least 3n
   minor words. *)
let gc_counts_joined_domains () =
  let n = 200_000 in
  let w0 = minor_words () in
  let d =
    Domain.spawn (fun () ->
        let r = ref [] in
        for i = 1 to n do
          r := i :: !r
        done;
        List.length !r)
  in
  let len = Domain.join d in
  let words = minor_words () -. w0 in
  (len = n && words >= float_of_int (3 * n), words)
