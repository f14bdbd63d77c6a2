(* Analyzer tests: the journal's load-balance view and the Chrome
   exporter checked against golden fixtures, JSON decoding, bench-JSON
   loading (envelope and legacy bare-array) and A/B regression
   comparison semantics. *)

module Analyze = Yewpar_telemetry.Analyze

(* [dune runtest] runs with the test directory as cwd, [dune exec]
   with the workspace root; accept either. *)
let read_file candidates =
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> List.hd candidates
  in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let fixture name =
  read_file
    [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]

module Journal = Yewpar_telemetry.Journal
module Telemetry = Yewpar_telemetry.Telemetry

(* ----------------------------- traces ----------------------------- *)

let fixture_entries () =
  let entries, malformed = Journal.read_string (fixture "trace_small.jsonl") in
  Alcotest.(check int) "fixture parses" 0 malformed;
  entries

let junk_rejected () =
  (match Analyze.parse_json "not json at all" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "junk accepted as json");
  (* The journal reader skips and counts what it cannot read. *)
  let _, malformed =
    Journal.read_string "not a journal at all\n{\"no_events\":1}\n"
  in
  Alcotest.(check int) "junk lines counted" 2 malformed

let golden_report () =
  (* The load-balance view of the journal fixture must match the
     checked-in report byte for byte; regenerate with
       yewpar analyze --journal test/fixtures/trace_small.jsonl  *)
  let entries = fixture_entries () in
  Alcotest.(check string) "golden load-balance report"
    (fixture "trace_small.report")
    (Journal.load_balance entries);
  (* [analyze --journal] prints it next to the critical path. *)
  let report = Journal.report entries in
  let section = fixture "trace_small.report" in
  let n = String.length section and m = String.length report in
  Alcotest.(check bool) "journal report ends with the section" true
    (m >= n && String.sub report (m - n) n = section)

let empty_report () =
  Alcotest.(check string) "empty trace" "empty trace: nothing to analyze\n"
    (Journal.load_balance [])

let chrome_golden () =
  (* The Chrome view of a fixed event list, byte for byte; events
     without a worker slot are not drawn. Regenerate the fixture by
     printing [Telemetry.to_chrome] of this list. *)
  let tl = Telemetry.create () in
  Telemetry.ingest tl ~locality:0 ~offset:0.
    [
      Journal.event ~worker:0 ~t:10. ~dur:0.25 ~value:2 ~ev:"task" ~span:1 ();
      Journal.event ~worker:1 ~t:10.125 ~dur:0.0625 ~ev:"steal" ~span:3 ();
      Journal.event ~worker:1 ~t:10.5 ~value:9 ~ev:"bound" ~span:0 ();
      Journal.event ~value:4 ~ev:"journal_drop" ~t:10.5 ~span:0 ();
    ];
  Telemetry.ingest tl ~locality:1 ~offset:0.5
    [ Journal.event ~worker:0 ~t:10. ~dur:0.5 ~ev:"idle" ~span:0 () ];
  Alcotest.(check string) "golden chrome trace"
    (String.trim (fixture "chrome_small.json"))
    (Telemetry.to_chrome tl);
  Alcotest.(check int) "shipped drops counted" 4 (Telemetry.dropped tl)

let unicode_escapes () =
  (* Non-ASCII labels escaped as \uXXXX must decode to UTF-8, including
     astral characters split into surrogate pairs. *)
  let names escaped =
    match
      Analyze.parse_json
        (Printf.sprintf "[%s]"
           (String.concat ", " (List.map (Printf.sprintf "\"%s\"") escaped)))
    with
    | Analyze.Arr xs -> List.map (fun x -> Analyze.str_or "?" (Some x)) xs
    | _ -> Alcotest.fail "not an array"
  in
  Alcotest.(check (list string))
    "BMP and astral escapes decode"
    [ "t\xc3\xa2che"; "\xe6\x8e\xa2\xe7\xb4\xa2"; "\xf0\x9f\x98\x80-worker" ]
    (names [ "t\\u00e2che"; "\\u63a2\\u7d22"; "\\ud83d\\ude00-worker" ]);
  (* Lone or mismatched surrogate halves become U+FFFD instead of
     corrupting the string. *)
  Alcotest.(check (list string))
    "lone surrogates are replaced"
    [ "\xef\xbf\xbd"; "\xef\xbf\xbdA"; "\xef\xbf\xbd\xef\xbf\xbd" ]
    (names [ "\\udc00"; "\\ud800\\u0041"; "\\ud800\\udbff" ]);
  match names [ "\\uZZZZ" ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "invalid hex in \\u escape accepted"

(* ----------------------------- bench ------------------------------ *)

let record ?(experiment = "figure4") ?(problem = "queens-12")
    ?(skeleton = "depthbounded") ?(runtime = "shm") ?(localities = 1)
    ?(workers = 4) elapsed =
  Printf.sprintf
    "{\"experiment\":%S,\"problem\":%S,\"skeleton\":%S,\"runtime\":%S,\
     \"localities\":%d,\"workers\":%d,\"elapsed\":%f}"
    experiment problem skeleton runtime localities workers elapsed

let envelope records =
  Printf.sprintf "{\"schema_version\":1,\"records\":[%s]}"
    (String.concat "," records)

let bench_loading () =
  let b = Analyze.load_bench (envelope [ record 1.0; record ~workers:8 2.0 ]) in
  Alcotest.(check int) "schema version" 1 b.Analyze.schema_version;
  Alcotest.(check int) "record count" 2 (List.length b.Analyze.records);
  let key, elapsed = List.hd b.Analyze.records in
  Alcotest.(check string) "key" "figure4/queens-12/depthbounded/shm/1x4" key;
  Alcotest.(check (float 1e-9)) "elapsed" 1.0 elapsed;
  (* Legacy bare-array files load as schema 0. *)
  let legacy = Analyze.load_bench (Printf.sprintf "[%s]" (record 3.0)) in
  Alcotest.(check int) "legacy schema" 0 legacy.Analyze.schema_version;
  Alcotest.(check int) "legacy records" 1 (List.length legacy.Analyze.records)

let bench_duplicates_averaged () =
  (* Seed sweeps repeat a configuration; the loader averages them. *)
  let b =
    Analyze.load_bench (envelope [ record 1.0; record 3.0; record ~workers:8 5.0 ])
  in
  Alcotest.(check int) "averaged down to 2" 2 (List.length b.Analyze.records);
  Alcotest.(check (float 1e-9)) "mean elapsed" 2.0
    (List.assoc "figure4/queens-12/depthbounded/shm/1x4" b.Analyze.records)

let compare_no_regression () =
  let old_ = Analyze.load_bench (envelope [ record 1.0 ]) in
  let new_ = Analyze.load_bench (envelope [ record 1.05 ]) in
  let v = Analyze.compare_bench ~threshold_pct:10. ~old_ ~new_ in
  Alcotest.(check int) "within threshold" 0 (List.length v.Analyze.regressions)

let compare_regression () =
  let old_ =
    Analyze.load_bench (envelope [ record 1.0; record ~workers:8 2.0 ])
  in
  let new_ =
    Analyze.load_bench (envelope [ record 1.5; record ~workers:8 2.0 ])
  in
  let v = Analyze.compare_bench ~threshold_pct:10. ~old_ ~new_ in
  (match v.Analyze.regressions with
  | [ (key, o, n, delta) ] ->
    Alcotest.(check string) "regressed key"
      "figure4/queens-12/depthbounded/shm/1x4" key;
    Alcotest.(check (float 1e-9)) "old" 1.0 o;
    Alcotest.(check (float 1e-9)) "new" 1.5 n;
    Alcotest.(check (float 1e-6)) "delta %" 50.0 delta
  | rs ->
    Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length rs)));
  (* The report flags the regressed row and counts it in the summary. *)
  let contains needle =
    let re = Str.regexp_string needle in
    match Str.search_forward re v.Analyze.report 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "row flagged" true
    (contains "figure4/queens-12/depthbounded/shm/1x4 !");
  Alcotest.(check bool) "summary line" true
    (contains "1/2 compared benchmarks regressed beyond +10.0%");
  Alcotest.(check bool) "summary counts churn" true
    (contains "(0 removed, 0 added)")

let compare_disjoint_keys () =
  let old_ = Analyze.load_bench (envelope [ record 1.0 ]) in
  let new_ = Analyze.load_bench (envelope [ record ~problem:"queens-14" 9.0 ]) in
  let v = Analyze.compare_bench ~threshold_pct:10. ~old_ ~new_ in
  Alcotest.(check int) "nothing joined, nothing regressed" 0
    (List.length v.Analyze.regressions);
  let contains needle =
    let re = Str.regexp_string needle in
    match Str.search_forward re v.Analyze.report 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "old-only reported" true
    (contains "missing in new: figure4/queens-12/depthbounded/shm/1x4");
  Alcotest.(check bool) "new-only reported" true
    (contains "new benchmark: figure4/queens-14/depthbounded/shm/1x4");
  (* Added/removed benchmarks are churn, not regressions: the summary
     counts them separately and the exit stays clean. *)
  Alcotest.(check bool) "summary counts churn" true
    (contains "0/0 compared benchmarks regressed beyond +10.0% (1 removed, 1 \
               added)")

(* ----------------------------- json ------------------------------- *)

let json_to_string_round_trip () =
  (* [to_string] output must parse back to the same tree, escapes and
     all — it is what the job server serves. *)
  let doc =
    Analyze.Obj
      [
        ("s", Analyze.Str "a\"b\\c\nd\te\r\x01");
        ("i", Analyze.Num 42.);
        ("f", Analyze.Num 0.25);
        ("arr", Analyze.Arr [ Analyze.Bool true; Analyze.Null ]);
        ("nested", Analyze.Obj [ ("k", Analyze.Str "v") ]);
      ]
  in
  let printed = Analyze.to_string doc in
  Alcotest.(check bool) "round trip" true (Analyze.parse_json printed = doc);
  Alcotest.(check string) "integral floats print as ints" "42"
    (Analyze.to_string (Analyze.Num 42.))

let baseline_file_loads () =
  (* The committed baseline must stay loadable and self-compare clean. *)
  let b =
    Analyze.load_bench
      (read_file [ "../BENCH_baseline.json"; "BENCH_baseline.json" ])
  in
  Alcotest.(check int) "schema version" 1 b.Analyze.schema_version;
  Alcotest.(check bool) "has records" true (List.length b.Analyze.records > 0);
  let v = Analyze.compare_bench ~threshold_pct:10. ~old_:b ~new_:b in
  Alcotest.(check int) "self-compare is clean" 0
    (List.length v.Analyze.regressions)

let () =
  Alcotest.run "analyze"
    [
      ( "trace",
        [
          Alcotest.test_case "junk rejected" `Quick junk_rejected;
          Alcotest.test_case "golden report" `Quick golden_report;
          Alcotest.test_case "empty report" `Quick empty_report;
          Alcotest.test_case "chrome golden" `Quick chrome_golden;
          Alcotest.test_case "unicode escapes" `Quick unicode_escapes;
        ] );
      ( "bench",
        [
          Alcotest.test_case "loading" `Quick bench_loading;
          Alcotest.test_case "duplicates averaged" `Quick bench_duplicates_averaged;
          Alcotest.test_case "no regression" `Quick compare_no_regression;
          Alcotest.test_case "regression flagged" `Quick compare_regression;
          Alcotest.test_case "disjoint keys" `Quick compare_disjoint_keys;
          Alcotest.test_case "committed baseline" `Quick baseline_file_loads;
        ] );
      ( "serve",
        [
          Alcotest.test_case "json to_string round trip" `Quick
            json_to_string_round_trip;
        ] );
    ]
