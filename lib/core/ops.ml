module Vec = Yewpar_util.Vec

type 'node view = {
  process : 'node -> bool;
  keep : ('node -> bool) option;
  prune_siblings : bool;
  priority : 'node -> int;
}

let[@inline] keeps view n = match view.keep with None -> true | Some keep -> keep n

type ('node, 'result) harness = {
  view : 'node Knowledge.t -> 'node view;
  result : 'node Knowledge.t -> 'result;
}

type ('node, 'result, 'partial) algebra = {
  empty : 'partial;
  view : 'partial ref -> 'node Knowledge.t -> 'node view;
  merge : 'partial -> 'partial -> 'partial;
  of_best : (int * 'node) option -> 'partial;
  answer : 'partial -> 'result;
  encode : 'node Codec.t -> 'partial -> string;
  decode : 'node Codec.t -> string -> 'partial;
}

type ('node, 'result) some_algebra =
  | Algebra : ('node, 'result, 'partial) algebra -> ('node, 'result) some_algebra

(* ---- Enumerate: the partial is the accumulator ---- *)

(* A node whose [view] is physically the identity is not combined,
   since [combine acc empty = acc]: the accumulator is written only
   for nodes that count. [==] compares immediates by value; a boxed
   identity matches only itself. *)
let enum_view (spec : ('n, 'acc) Problem.enum_spec) acc =
  let { Problem.empty; combine; view } = spec in
  {
    process =
      (fun n ->
        let v = view n in
        if v != empty then acc := combine !acc v;
        true);
    keep = None;
    prune_siblings = false;
    priority = (fun _ -> 0);
  }

let enum_algebra (spec : ('n, 'acc) Problem.enum_spec) : ('n, 'acc, 'acc) algebra =
  {
    empty = spec.empty;
    view = (fun acc _ -> enum_view spec acc);
    merge = spec.combine;
    (* An incumbent store holds nothing an enumeration counts. *)
    of_best = (fun _ -> spec.empty);
    answer = Fun.id;
    encode = (fun _ acc -> Marshal.to_string acc []);
    decode = (fun _ s -> Marshal.from_string s 0);
  }

(* ---- Optimise / Decide: the partial is the best (value, node) ---- *)

(* Keeps the left operand on ties, so folds return the first best. *)
let merge_best a b =
  match (a, b) with
  | _, None -> a
  | Some (av, _), Some (bv, _) when av >= bv -> a
  | _ -> b

let best_algebra ~view ~answer : ('n, 'r, (int * 'n) option) algebra =
  {
    empty = None;
    view;
    merge = merge_best;
    of_best = Fun.id;
    answer;
    encode =
      (fun codec p ->
        Marshal.to_string
          (Option.map (fun (v, n) -> (v, codec.Codec.encode n)) p
            : (int * string) option)
          []);
    decode =
      (fun codec s ->
        Option.map
          (fun (v, e) -> (v, codec.Codec.decode e))
          (Marshal.from_string s 0 : (int * string) option));
  }

let prune_siblings (obj : 'n Problem.objective) = obj.monotone && obj.bound <> None
let priority (obj : 'n Problem.objective) =
  match obj.bound with Some b -> b | None -> obj.value

(* A child is kept while its bound beats the store's word: one load.
   [keep] is a closure of one argument, not a partial application. *)
let opt_view (obj : 'n Problem.objective) (k : 'n Knowledge.t) process =
  let best = k.Knowledge.best in
  let keep =
    match obj.bound with
    | Some bound -> Some (fun c -> bound c > Atomic.get best)
    | None -> None
  in
  { process; keep; prune_siblings = prune_siblings obj; priority = priority obj }

(* [submit] receives only nodes reaching the target. *)
let dec_view (obj : 'n Problem.objective) ~target submit =
  let keep = Option.map (fun bound c -> bound c >= target) obj.bound in
  let process n =
    let v = obj.value n in
    if v >= target then begin
      ignore (submit n v);
      false
    end
    else true
  in
  { process; keep; prune_siblings = prune_siblings obj; priority = priority obj }

(* Submits to the store and offers the node to the caller's partial. *)
let offering cell (k : 'n Knowledge.t) n v =
  (match !cell with Some (bv, _) when bv >= v -> () | _ -> cell := Some (v, n));
  k.submit n v

(* A lease's view offers every node to its partial, also one that does
   not beat the word: the word may hold a floor from a lost copy of the
   same lease, whose re-run must still record its witness. *)
let opt_algebra (obj : 'n Problem.objective) =
  best_algebra
    ~view:(fun cell k ->
      opt_view obj k (fun n ->
          ignore (offering cell k n (obj.value n) : bool);
          true))
    ~answer:(function
      | Some (_, n) -> n
      | None -> failwith "Ops: optimisation finished without processing the root")

let dec_algebra obj ~target =
  best_algebra
    ~view:(fun cell k -> dec_view obj ~target (offering cell k))
    ~answer:(function
      | Some (v, n) when v >= target -> Some n
      | Some _ | None -> None)

let algebra : type n r. (n, r) Problem.kind -> (n, r) some_algebra = function
  | Problem.Enumerate spec -> Algebra (enum_algebra spec)
  | Problem.Optimise obj -> Algebra (opt_algebra obj)
  | Problem.Decide { objective; target } -> Algebra (dec_algebra objective ~target)

(* ---- harnesses: the in-process runtimes' views, without lease cells ---- *)

let enum_harness (spec : ('n, 'acc) Problem.enum_spec) : ('n, 'acc) harness =
  (* One accumulator per view, so no two workers write the same ref;
     commutativity of [combine] makes the final merge order irrelevant.
     The refs are allocated back to back on the calling domain, so they
     may share a cache line. *)
  let accumulators : 'acc ref Vec.t = Vec.create () in
  let view _knowledge =
    let acc = ref spec.empty in
    Vec.push accumulators acc;
    enum_view spec acc
  in
  let result _knowledge =
    Vec.fold_left (fun total acc -> spec.combine total !acc) spec.empty accumulators
  in
  { view; result }

(* The knowledge store itself holds the best partial, so views submit
   straight to it. *)
let best_harness alg view : ('n, 'r) harness =
  { view; result = (fun k -> alg.answer (k.Knowledge.best_node ())) }

(* Only a node that beats the word is offered: a store without floors
   would refuse any other, as its witness is worth at least the word. *)
let opt_harness_view (obj : 'n Problem.objective) (k : 'n Knowledge.t) =
  let best = k.Knowledge.best and submit = k.Knowledge.submit
  and value = obj.value in
  opt_view obj k (fun n ->
      let v = value n in
      if v > Atomic.get best then ignore (submit n v : bool);
      true)

let harness : type n r. (n, r) Problem.kind -> (n, r) harness = function
  | Problem.Enumerate spec -> enum_harness spec
  | Problem.Optimise obj -> best_harness (opt_algebra obj) (opt_harness_view obj)
  | Problem.Decide { objective; target } ->
    best_harness (dec_algebra objective ~target) (fun k ->
        dec_view objective ~target k.Knowledge.submit)
