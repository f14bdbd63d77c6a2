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

(* A hook sees the engine record up to date. *)
let[@inline] call hook t top entered pruned backtracks max_depth =
  match hook with
  | None -> ()
  | Some hook ->
    sync t top entered pruned backtracks max_depth;
    hook ()

(* Two forced pairs of transitions take one iteration each, with no
   hook between their halves: entering a leaf (its generator is
   [Seq.empty]) and leaving it pushes no frame, when no [on_enter] hook
   must see the leaf on the stack; and a sibling cut under [prune_rest]
   leaves its frame at once, without writing [Seq.empty] into it. Each
   pair takes two steps, so a run with one step left, and a caller
   stepping one transition at a time, takes the halves apart. *)
let run ?on_enter ?on_leave ?(steps = max_int) ~prune_rest ?keep ~process
    ~stop t =
  let prof = t.prof and children = t.children and space = t.space in
  let fuse_leaf = match on_enter with None -> true | Some _ -> false in
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
          call on_leave t top entered pruned backtracks max_depth;
          go top (n - 1) entered pruned backtracks max_depth
        | Seq.Cons (child, rest) ->
          (* A cursor generator is its own tail, so its frame is left
             unwritten (a write is a [caml_modify] call); without
             [keep] every child is kept, with no call. *)
          if rest != f.rest then f.rest <- rest;
          if (match keep with None -> true | Some keep -> keep child) then begin
            let depth = f.depth + 1 in
            f.kept <- f.kept + 1;
            let grandchildren = children space child in
            let entered = entered + 1 in
            let max_depth = if depth > max_depth then depth else max_depth in
            (* Noted before [process], which books a bound update at
               the last noted depth. *)
            Depth_profile.note_node prof depth;
            if process child then begin
              if fuse_leaf && n >= 2 && grandchildren == Seq.empty then begin
                (* Enter a leaf and leave it: no frame. *)
                let backtracks = backtracks + 1 in
                Depth_profile.note_complete prof depth 0;
                call on_leave t top entered pruned backtracks max_depth;
                go top (n - 2) entered pruned backtracks max_depth
              end
              else begin
                let top =
                  Frame { rest = grandchildren; depth; kept = 0; below = top }
                in
                call on_enter t top entered pruned backtracks max_depth;
                go top (n - 1) entered pruned backtracks max_depth
              end
            end
            else begin
              let top =
                Frame { rest = grandchildren; depth; kept = 0; below = top }
              in
              Atomic.set stop true;
              sync t top entered pruned backtracks max_depth;
              false
            end
          end
          else begin
            let pruned = pruned + 1 in
            Depth_profile.note_prune prof (f.depth + 1);
            if prune_rest && n >= 2 then begin
              (* Cut the siblings and leave the frame. *)
              let top = f.below and backtracks = backtracks + 1 in
              Depth_profile.note_complete prof f.depth f.kept;
              call on_leave t top entered pruned backtracks max_depth;
              go top (n - 2) entered pruned backtracks max_depth
            end
            else begin
              if prune_rest then f.rest <- Seq.empty;
              go top (n - 1) entered pruned backtracks max_depth
            end
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
