let is_space c = c = ' ' || c = '\t' || c = '\r'

let fields line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let int_field what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "Dimacs: expected integer %s, got %S" what s)

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let graph = ref None in
  let edge u v =
    match !graph with
    | None -> failwith "Dimacs: edge line before problem line"
    | Some g ->
      let n = Graph.n_vertices g in
      if u < 1 || u > n || v < 1 || v > n then
        failwith (Printf.sprintf "Dimacs: vertex out of range in edge %d %d" u v);
      Graph.add_edge g (u - 1) (v - 1)
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else
        match fields line with
        | [ "p"; format; n; _m ] when format = "edge" || format = "col" ->
          if !graph <> None then failwith "Dimacs: duplicate problem line";
          let n = int_field "vertex count" n in
          if n < 0 then failwith (Printf.sprintf "Dimacs: negative vertex count %d" n);
          graph := Some (Graph.create n)
        | "e" :: u :: v :: _ -> edge (int_field "endpoint" u) (int_field "endpoint" v)
        | f :: _ when String.length f > 0 && is_space f.[0] -> ()
        | _ -> failwith (Printf.sprintf "Dimacs: unrecognised line %S" line))
    lines;
  match !graph with
  | Some g -> g
  | None -> failwith "Dimacs: no problem line found"

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (In_channel.input_all ic))

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p edge %d %d\n" (Graph.n_vertices g) (Graph.n_edges g));
  for u = 0 to Graph.n_vertices g - 1 do
    for v = u + 1 to Graph.n_vertices g - 1 do
      if Graph.has_edge g u v then
        Buffer.add_string buf (Printf.sprintf "e %d %d\n" (u + 1) (v + 1))
    done
  done;
  Buffer.contents buf
