(* The generator stack is a linked list of frames, top first. A push
   allocates a fresh frame on the minor heap and a pop just drops it,
   so the hot loop writes into no long-lived block: the frame fields
   it mutates ([rest], [kept]) belong to frames that are almost always
   still young, the top of stack is a local of [run] between syncs, and
   a popped frame keeps nothing alive. *)
type 'node frame =
  | Bottom
  | Frame of {
      mutable rest : 'node Seq.t;
          (* the unexplored children of the node this frame expands *)
      depth : int;
      mutable kept : int;
          (* children of that node committed to the search: entered by
             this engine or credited by the caller when split off to a
             task *)
      below : 'node frame;
    }

type ('space, 'node) t = {
  space : 'space;
  children : ('space, 'node) Problem.generator;
  mutable top : 'node frame;
  mutable root : 'node;
  mutable root_depth : int;
  prof : Depth_profile.t;
      (* the one place a traversal step is recorded: every entered
         child notes a node, every pruned one a prune and every leave a
         completion (depth, kept). [Depth_profile.null] when nothing is
         collected — each note reduces to one branch. *)
  mutable entered : int;
  mutable pruned : int;
  mutable backtracks : int;
  mutable max_depth : int;
}

let root_frame children space root root_depth =
  Frame { rest = children space root; depth = root_depth; kept = 0; below = Bottom }

let make ?(prof = Depth_profile.null) ~space ~children ~root_depth root =
  { space; children; top = root_frame children space root root_depth; root;
    root_depth; prof; entered = 0; pruned = 0; backtracks = 0;
    max_depth = root_depth }

let restart t ~root_depth root =
  t.root <- root;
  t.root_depth <- root_depth;
  t.entered <- 0;
  t.pruned <- 0;
  t.backtracks <- 0;
  t.max_depth <- root_depth;
  t.top <- root_frame t.children t.space root root_depth

let root t = t.root

(* The engine record is written only where the loop hands control
   back: on every return and before every hook. In between, the top of
   stack and the counters live in [go]'s arguments, so a push or pop
   writes no long-lived block. *)
let sync t top entered pruned backtracks max_depth =
  t.top <- top;
  t.entered <- entered;
  t.pruned <- pruned;
  t.backtracks <- backtracks;
  t.max_depth <- max_depth

let run ?on_enter ?on_leave ?(steps = max_int) ~prune_rest ~keep ~process
    ~stop t =
  let prof = t.prof and children = t.children and space = t.space in
  let rec go top n entered pruned backtracks max_depth =
    if Atomic.get stop then begin
      sync t top entered pruned backtracks max_depth;
      false
    end
    else if n = 0 then begin
      sync t top entered pruned backtracks max_depth;
      true
    end
    else
      match top with
      | Bottom ->
        sync t top entered pruned backtracks max_depth;
        false
      | Frame f -> (
        match f.rest () with
        | Seq.Nil ->
          let top = f.below and backtracks = backtracks + 1 in
          Depth_profile.note_complete prof f.depth f.kept;
          (match on_leave with
          | None -> ()
          | Some hook ->
            sync t top entered pruned backtracks max_depth;
            hook ());
          go top (n - 1) entered pruned backtracks max_depth
        | Seq.Cons (child, rest) ->
          f.rest <- rest;
          if keep child then begin
            let depth = f.depth + 1 in
            f.kept <- f.kept + 1;
            let top =
              Frame { rest = children space child; depth; kept = 0; below = top }
            in
            let entered = entered + 1 in
            let max_depth = if depth > max_depth then depth else max_depth in
            Depth_profile.note_node prof depth;
            if process child then begin
              (match on_enter with
              | None -> ()
              | Some hook ->
                sync t top entered pruned backtracks max_depth;
                hook ());
              go top (n - 1) entered pruned backtracks max_depth
            end
            else begin
              Atomic.set stop true;
              sync t top entered pruned backtracks max_depth;
              false
            end
          end
          else begin
            if prune_rest then f.rest <- Seq.empty;
            Depth_profile.note_prune prof (f.depth + 1);
            go top (n - 1) entered (pruned + 1) backtracks max_depth
          end)
  in
  go t.top steps t.entered t.pruned t.backtracks t.max_depth

let current_depth t =
  match t.top with Frame f -> f.depth | Bottom -> t.root_depth - 1

let stack_size t =
  let rec go n = function Bottom -> n | Frame f -> go (n + 1) f.below in
  go 0 t.top

let backtracks t = t.backtracks
let nodes_entered t = t.entered
let nodes_pruned t = t.pruned
let max_depth t = t.max_depth

(* Drain a frame's remaining children into a traversal-order list. *)
let drain = function
  | Bottom -> ([], 0)
  | Frame f ->
    let rec go acc rest =
      match rest () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (c, rest) -> go (c :: acc) rest
    in
    let cs = go [] f.rest in
    f.rest <- Seq.empty;
    (cs, f.depth + 1)

(* The lowest frame that still has unexplored children, or [Bottom].
   Frames are forced bottom-up, as far as the first non-empty one, and
   each forced sequence is pinned to its result (an empty one to
   [Seq.empty], a non-empty one re-consed) so nothing is forced twice. *)
let rec lowest_nonempty = function
  | Bottom -> Bottom
  | Frame f as frame -> (
    match lowest_nonempty f.below with
    | Frame _ as found -> found
    | Bottom -> (
      match f.rest () with
      | Seq.Nil ->
        f.rest <- Seq.empty;
        Bottom
      | Seq.Cons (c, rest) ->
        f.rest <- Seq.cons c rest;
        frame))

let split_lowest t = drain (lowest_nonempty t.top)

let split_one t =
  match lowest_nonempty t.top with
  | Bottom -> None
  | Frame f -> (
    match f.rest () with
    | Seq.Nil -> None (* unreachable: lowest_nonempty pinned a child *)
    | Seq.Cons (c, rest) ->
      f.rest <- rest;
      Some (c, f.depth + 1))

(* Frames form a single root-to-tip path with depths one apart, so the
   frame at global depth [depth], if still on the stack, is found by
   walking down from the top. *)
let rec frame_at depth = function
  | Frame f when f.depth > depth -> frame_at depth f.below
  | frame -> frame

let credit_kept t ~depth ~n =
  if n > 0 then
    match frame_at depth t.top with
    | Frame f when f.depth = depth -> f.kept <- f.kept + n
    | Frame _ | Bottom -> ()

let cut_rest t ~depth =
  match frame_at depth t.top with
  | Frame f when f.depth = depth -> f.rest <- Seq.empty
  | Frame _ | Bottom -> ()
