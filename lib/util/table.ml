let render ~header rows =
  let ncols = List.length header in
  let pad row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let fmt_row row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = widths.(i) in
           if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
         row)
  in
  let rule =
    String.concat "--" (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (fmt_row header :: rule :: List.map fmt_row rows)

let fpercent p = Printf.sprintf "%.2f" p
let fspeedup s = Printf.sprintf "%.2f" s
