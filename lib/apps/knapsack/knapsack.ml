module Splitmix = Yewpar_util.Splitmix
module Problem = Yewpar_core.Problem

type item = { profit : int; weight : int }

type instance = {
  items : item array;
  capacity : int;
  lightest : int array;
      (* [lightest.(j)] is the least weight among items [j..n-1], and
         [max_int] at [n]: no later item fits in less room *)
}

let instance ~items:item_list ~capacity =
  if capacity <= 0 then invalid_arg "Knapsack.instance: non-positive capacity";
  (* [max_int] is [lightest]'s end sentinel, which must exceed every
     room left. *)
  if capacity = max_int then invalid_arg "Knapsack.instance: capacity max_int";
  List.iter
    (fun it ->
      if it.profit <= 0 || it.weight <= 0 then
        invalid_arg "Knapsack.instance: non-positive item")
    item_list;
  let arr = Array.of_list item_list in
  let order = Array.init (Array.length arr) Fun.id in
  (* Non-increasing density p/w, compared exactly by cross-multiplying
     (float quotients can tie distinct densities); ties keep input
     order. *)
  Array.sort
    (fun i j ->
      let c =
        compare (arr.(j).profit * arr.(i).weight) (arr.(i).profit * arr.(j).weight)
      in
      if c <> 0 then c else compare i j)
    order;
  let items = Array.map (fun i -> arr.(i)) order in
  let n = Array.length items in
  let lightest = Array.make (n + 1) max_int in
  for j = n - 1 downto 0 do
    lightest.(j) <- min items.(j).weight lightest.(j + 1)
  done;
  { items; capacity; lightest }

let capacity inst = inst.capacity
let items inst = inst.items

type node = {
  next : int;
  profit : int;
  weight : int;
  taken : int list;
}

let root _inst = { next = 0; profit = 0; weight = 0; taken = [] }

(* One cursor per call: [next] advances this call's item index past
   the items that do not fit and is its own tail, so a child costs its
   cell, its node and its [taken] cons. The cursor keeps only [inst],
   [parent], the room left and the index, and ends as soon as no later
   item fits ([lightest]). A node where none fits allocates nothing and
   gets [Seq.empty], found in O(1). *)
let children inst parent =
  let room = inst.capacity - parent.weight in
  if room < inst.lightest.(parent.next) then Seq.empty
  else begin
    let i = ref parent.next in
    let rec next () =
      let j = !i in
      if room < inst.lightest.(j) then Seq.Nil
      else begin
        i := j + 1;
        let it = inst.items.(j) in
        if it.weight <= room then
          Seq.Cons
            ( {
                next = j + 1;
                profit = parent.profit + it.profit;
                weight = parent.weight + it.weight;
                taken = j :: parent.taken;
              },
              next )
        else next ()
      end
    in
    next
  end

(* The greedy fill from item [i] with [room] left: whole items while
   they fit, then a fraction of the first that does not. Top level and
   tail-recursive, so a bound check is a loop that allocates nothing. *)
let rec fill (items : item array) i profit room =
  if i >= Array.length items || room = 0 then profit
  else
    let it = items.(i) in
    if it.weight <= room then fill items (i + 1) (profit + it.profit) (room - it.weight)
    else profit + (it.profit * room / it.weight)

(* Items are in density order, so the greedy fill is the LP relaxation
   optimum for the subtree. *)
let fractional_bound inst node =
  fill inst.items node.next node.profit (inst.capacity - node.weight)

(* Nodes are plain data (ints and an int list), so the default Marshal
   codec ships them between localities as-is. *)
let codec : node Yewpar_core.Codec.t = Yewpar_core.Codec.marshal ()

(* The bound is sibling-monotone, so a failed child cuts all its later
   siblings unbuilt ([monotone_bound]). Take siblings that add items
   [i < j]; with density d = p/w, the order gives d_i >= d_j >= every
   density after j. Child j's LP optimum fills at most the parent's
   residual room with item j and items after it. Remove up to w_i units
   of that weight, of density <= d_j <= d_i, and add item i: the profit
   falls by at most w_i * d_i = p_i and rises by p_i, and the result is
   feasible for child i's LP (item i whole, items after i fractional).
   So bound(child_i) >= bound(child_j); the integer division is a
   floor, which keeps the order. The incumbent only rises between two
   sibling checks, so every later sibling of a failed child fails too:
   the entered nodes and the result are unchanged, and only the
   children built to be pruned go. *)
let problem inst =
  Problem.maximise ~codec ~name:"knapsack" ~space:inst ~root:(root inst) ~children
    ~bound:(fractional_bound inst) ~monotone_bound:true
    ~objective:(fun n -> n.profit) ()

let decision inst ~target =
  Problem.decide ~codec ~name:"knapsack-dec" ~space:inst ~root:(root inst) ~children
    ~bound:(fractional_bound inst) ~monotone_bound:true
    ~objective:(fun n -> n.profit) ~target ()

let parse_string text =
  let fields line =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
  in
  let int_of what s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Knapsack: expected integer %s, got %S" what s)
  in
  match
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  with
  | [] -> failwith "Knapsack: empty instance file"
  | header :: rest -> (
    match fields header with
    | [ n; capacity ] ->
      let n = int_of "item count" n in
      let capacity = int_of "capacity" capacity in
      if capacity <= 0 then
        failwith (Printf.sprintf "Knapsack: non-positive capacity %d" capacity);
      if capacity = max_int then failwith "Knapsack: capacity max_int";
      if List.length rest <> n then
        failwith
          (Printf.sprintf "Knapsack: expected %d item lines, found %d" n
             (List.length rest));
      let items =
        List.map
          (fun line ->
            match fields line with
            | [ p; w ] ->
              let it = { profit = int_of "profit" p; weight = int_of "weight" w } in
              if it.profit <= 0 || it.weight <= 0 then
                failwith (Printf.sprintf "Knapsack: non-positive item line %S" line);
              it
            | _ -> failwith (Printf.sprintf "Knapsack: malformed item line %S" line))
          rest
      in
      instance ~items ~capacity
    | _ -> failwith "Knapsack: malformed header (expected \"n capacity\")")

let to_string inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Array.length inst.items) inst.capacity);
  Array.iter
    (fun (it : item) ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" it.profit it.weight))
    inst.items;
  Buffer.contents buf

let exact_dp inst =
  let c = inst.capacity in
  let best = Array.make (c + 1) 0 in
  Array.iter
    (fun (it : item) ->
      for room = c downto it.weight do
        best.(room) <- max best.(room) (best.(room - it.weight) + it.profit)
      done)
    inst.items;
  best.(c)

module Generate = struct
  let make ~seed ~n ~max_value (pick : Splitmix.gen -> int -> item) =
    let rng = Splitmix.of_seed seed in
    let items =
      List.init n (fun _ ->
          let weight = 1 + Splitmix.int rng max_value in
          pick rng weight)
    in
    let total = List.fold_left (fun acc (it : item) -> acc + it.weight) 0 items in
    (* Half the total weight is the standard "hard" capacity ratio. *)
    instance ~items ~capacity:(max 1 (total / 2))

  let uncorrelated ~seed ~n ~max_value =
    make ~seed ~n ~max_value (fun rng weight ->
        { weight; profit = 1 + Splitmix.int rng max_value })

  let weakly_correlated ~seed ~n ~max_value =
    make ~seed ~n ~max_value (fun rng weight ->
        let spread = max 1 (max_value / 10) in
        let delta = Splitmix.int rng (2 * spread) - spread in
        { weight; profit = max 1 (weight + delta) })

  let strongly_correlated ~seed ~n ~max_value =
    make ~seed ~n ~max_value (fun _rng weight ->
        { weight; profit = weight + (max_value / 10) + 1 })

  let subset_sum ~seed ~n ~max_value =
    (* Even weights with an odd capacity: no selection ever reaches the
       capacity exactly, so the relaxation bound (= capacity while any
       item remains fractionally placeable) never closes and pruning is
       minimal — the classic hard subset-sum construction. *)
    let rng = Splitmix.of_seed seed in
    let items =
      List.init n (fun _ ->
          let weight = 2 * (1 + Splitmix.int rng max_value) in
          { weight; profit = weight })
    in
    let total = List.fold_left (fun acc (it : item) -> acc + it.weight) 0 items in
    instance ~items ~capacity:((total / 2) lor 1)
end
