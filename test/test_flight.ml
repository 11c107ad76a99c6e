(* Tests for the native flight recorder's export surfaces (DESIGN.md
   §13): the exsel-native-trace/1 document shape and its golden
   rendering, the Chrome trace-event rendering (one track per domain,
   attributed spans, overhead bars), the Validate.native_trace
   accept/reject behaviour, and the Bench_diff perf trend differ. *)

module H = Exsel_native.Harness
module TN = Exsel_obs.Trace_export.Native
module Json = Exsel_obs.Json
module JP = Exsel_testkit.Json_parse
module V = Exsel_testkit.Validate
module BD = Exsel_testkit.Bench_diff

(* ------------------------------------------------------------------ *)
(* exsel-native-trace/1 document shape                                 *)
(* ------------------------------------------------------------------ *)

(* A tiny hand-built flight record with known numbers: two workers, two
   spans on worker 0, one on worker 1, worker 0 busy 30 of wall 100. *)
let tiny =
  {
    TN.nd_label = Some "tiny";
    nd_domains = 2;
    nd_spawn_ns = 5;
    nd_join_ns = 7;
    nd_wall_ns = 100;
    nd_spans =
      [
        { TN.sp_track = 0; sp_name = "p0"; sp_start_ns = 10; sp_stop_ns = 30 };
        { TN.sp_track = 1; sp_name = "p1"; sp_start_ns = 12; sp_stop_ns = 62 };
        { TN.sp_track = 0; sp_name = "p2"; sp_start_ns = 40; sp_stop_ns = 50 };
      ];
  }

let test_native_doc_golden () =
  (* the full rendering is pinned: field order and derived numbers
     (tasks, per-worker busy/utilization) are part of the contract *)
  let expected =
    "{\"schema\":\"exsel-native-trace/1\",\"label\":\"tiny\",\
     \"clock\":\"wall_ns\",\"domains\":2,\"tasks\":3,\"spawn_ns\":5,\
     \"join_ns\":7,\"wall_ns\":100,\"workers\":[{\"worker\":0,\"tasks\":2,\
     \"busy_ns\":30,\"utilization_ppm\":300000},{\"worker\":1,\"tasks\":1,\
     \"busy_ns\":50,\"utilization_ppm\":500000}],\"spans\":[{\"name\":\"p0\",\
     \"worker\":0,\"start_ns\":10,\"stop_ns\":30},{\"name\":\"p1\",\
     \"worker\":1,\"start_ns\":12,\"stop_ns\":62},{\"name\":\"p2\",\
     \"worker\":0,\"start_ns\":40,\"stop_ns\":50}]}"
  in
  Alcotest.(check string) "golden" expected (Json.to_string (TN.to_json tiny))

let test_native_doc_validates () =
  match V.native_trace (JP.roundtrip (TN.to_json tiny)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "tiny doc rejected: %s" msg

let test_harness_trace_doc () =
  (* a real run's flight record: one span per process with its name,
     timestamps inside the window, and it passes the validator *)
  let n = 10 in
  let algo = Option.get (Exsel_conformance.Adapter.find "efficient") in
  let r = H.run ~algo ~n ~domains:3 ~seed:2 () in
  let d = H.trace_doc r in
  Alcotest.(check int) "one span per process" n (List.length d.TN.nd_spans);
  Alcotest.(check (list string))
    "spans keep task names in spawn order"
    (List.init n (Printf.sprintf "p%d"))
    (List.map (fun s -> s.TN.sp_name) d.TN.nd_spans);
  List.iter
    (fun s ->
      if s.TN.sp_start_ns < 0 || s.TN.sp_stop_ns > d.TN.nd_wall_ns then
        Alcotest.failf "span %s outside the run window" s.TN.sp_name;
      if s.TN.sp_track < 0 || s.TN.sp_track >= d.TN.nd_domains then
        Alcotest.failf "span %s on unknown track %d" s.TN.sp_name s.TN.sp_track)
    d.TN.nd_spans;
  Alcotest.(check string)
    "default label" "efficient n=10 domains=3 seed=2"
    (Option.get d.TN.nd_label);
  match V.native_trace (JP.roundtrip (TN.to_json d)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "real trace rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Validator rejections                                                *)
(* ------------------------------------------------------------------ *)

let expect_reject what doc =
  match V.native_trace (JP.roundtrip doc) with
  | Ok () -> Alcotest.failf "%s: accepted" what
  | Error _ -> ()

let test_validator_rejects () =
  expect_reject "wrong schema"
    (Json.Obj [ ("schema", Json.String "exsel-bench/1") ]);
  expect_reject "worker off the pool"
    (TN.to_json
       { tiny with TN.nd_spans = [ { TN.sp_track = 5; sp_name = "p0"; sp_start_ns = 0; sp_stop_ns = 1 } ] });
  expect_reject "span past the wall"
    (TN.to_json
       { tiny with TN.nd_spans = [ { TN.sp_track = 0; sp_name = "p0"; sp_start_ns = 0; sp_stop_ns = 101 } ] });
  expect_reject "stop before start"
    (TN.to_json
       { tiny with TN.nd_spans = [ { TN.sp_track = 0; sp_name = "p0"; sp_start_ns = 9; sp_stop_ns = 3 } ] });
  expect_reject "overlapping spans on one worker"
    (TN.to_json
       {
         tiny with
         TN.nd_spans =
           [
             { TN.sp_track = 0; sp_name = "p0"; sp_start_ns = 0; sp_stop_ns = 50 };
             { TN.sp_track = 0; sp_name = "p1"; sp_start_ns = 40; sp_stop_ns = 60 };
           ];
       });
  expect_reject "negative overhead" (TN.to_json { tiny with TN.nd_spawn_ns = -1 })

(* ------------------------------------------------------------------ *)
(* Chrome rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_chrome_tracks () =
  let j = JP.roundtrip (TN.chrome tiny) in
  let events = JP.get_list "traceEvents" j in
  let thread_names =
    List.filter_map
      (fun e ->
        if JP.get_string "name" e = "thread_name" then
          Some (JP.get_int "tid" e, JP.get_string "name" (Json.Obj (JP.get_obj "args" e)))
        else None)
      (List.filter (fun e -> JP.get_string "ph" e = "M") events)
  in
  (* one named track per domain, the caller's labelled as such *)
  Alcotest.(check (list (pair int string)))
    "one thread per domain"
    [ (0, "domain 0 (caller)"); (1, "domain 1") ]
    (List.sort compare thread_names);
  let xs = List.filter (fun e -> JP.get_string "ph" e = "X") events in
  let span_xs =
    List.filter
      (fun e -> JP.get_string "name" e <> "domain-spawn" && JP.get_string "name" e <> "join")
      xs
  in
  Alcotest.(check int) "every span rendered" 3 (List.length span_xs);
  List.iter
    (fun e ->
      let args = Json.Obj (JP.get_obj "args" e) in
      let dur_ns = JP.get_int "dur_ns" args in
      Alcotest.(check int) "us scale" (JP.get_int "start_ns" args / 1000) (JP.get_int "ts" e);
      if JP.get_int "dur" e < 1 then Alcotest.fail "invisible sliver";
      if dur_ns <> JP.get_int "stop_ns" args - JP.get_int "start_ns" args then
        Alcotest.fail "ns args inconsistent")
    span_xs;
  (* spawn/join overhead bars land on the caller's track *)
  let overheads = List.filter (fun e -> not (List.memq e span_xs)) xs in
  Alcotest.(check (list (pair string int)))
    "overhead bars on track 0"
    [ ("domain-spawn", 0); ("join", 0) ]
    (List.sort compare
       (List.map (fun e -> (JP.get_string "name" e, JP.get_int "tid" e)) overheads))

(* ------------------------------------------------------------------ *)
(* Bench_diff                                                          *)
(* ------------------------------------------------------------------ *)

let hist ?(p99 = 100) name labels =
  Json.Obj
    [
      ("name", Json.String name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels));
      ("p50", Json.Int 10);
      ("p90", Json.Int 50);
      ("p99", Json.Int p99);
      ("p999", Json.Int (max p99 200));
    ]

let bench_doc ?(suites = [ "P1" ]) ?(p99 = 100) ?(cell = "1000") () =
  Json.Obj
    [
      ("schema", Json.String "exsel-bench/1");
      ( "experiments",
        Json.List
          (List.map
             (fun id ->
               Json.Obj
                 [
                   ("id", Json.String id);
                   ( "table",
                     Json.Obj
                       [
                         ( "header",
                           Json.List
                             [ Json.String "algo"; Json.String "ops/sec" ] );
                         ( "rows",
                           Json.List
                             [
                               Json.List
                                 [ Json.String "ma"; Json.String cell ];
                             ] );
                       ] );
                 ])
             suites) );
      ( "metrics",
        Json.Obj
          [
            ("schema", Json.String "exsel-metrics/1");
            ( "histograms",
              Json.List [ hist ~p99 "exsel_rename_latency_ns" [ ("algo", "ma") ] ]
            );
          ] );
    ]

let diff_ok ?threshold old_doc new_doc =
  match BD.diff ?threshold ~old_doc ~new_doc () with
  | Ok t -> t
  | Error msg -> Alcotest.failf "diff refused: %s" msg

let test_bench_diff_self () =
  let d = bench_doc () in
  let t = diff_ok d d in
  Alcotest.(check bool) "self-diff clean" false (BD.regressed t);
  Alcotest.(check int) "no cell deltas" 0
    (List.fold_left (fun a (_, ds) -> a + List.length ds) 0 t.BD.suites);
  Alcotest.(check int) "no quantile deltas" 0 (List.length t.BD.quantiles)

let test_bench_diff_missing_suite () =
  let t =
    diff_ok (bench_doc ~suites:[ "P1"; "P2" ] ()) (bench_doc ~suites:[ "P1" ] ())
  in
  Alcotest.(check bool) "missing suite regresses" true (BD.regressed t);
  (* the reverse direction is only a note *)
  let t' =
    diff_ok (bench_doc ~suites:[ "P1" ] ()) (bench_doc ~suites:[ "P1"; "P2" ] ())
  in
  Alcotest.(check bool) "new suite is fine" false (BD.regressed t');
  Alcotest.(check bool) "but noted" true (t'.BD.notes <> [])

let test_bench_diff_quantile_threshold () =
  (* +30% p99 trips the default 25% threshold but not a 50% one *)
  let old_doc = bench_doc ~p99:100 () in
  let new_doc = bench_doc ~p99:130 () in
  let t = diff_ok old_doc new_doc in
  Alcotest.(check bool) "beyond default threshold" true (BD.regressed t);
  let t' = diff_ok ~threshold:0.5 old_doc new_doc in
  Alcotest.(check bool) "within a looser threshold" false (BD.regressed t');
  Alcotest.(check int) "delta still reported" 1 (List.length t'.BD.quantiles);
  (* improvements never regress *)
  let t'' = diff_ok new_doc old_doc in
  Alcotest.(check bool) "improvement is clean" false (BD.regressed t'')

let test_bench_diff_cells_reported_not_gated () =
  let t = diff_ok (bench_doc ~cell:"1000" ()) (bench_doc ~cell:"10" ()) in
  Alcotest.(check bool) "throughput collapse does not gate" false
    (BD.regressed t);
  match t.BD.suites with
  | [ ("P1", [ d ]) ] ->
      Alcotest.(check string) "delta key" "[ma] ops/sec" d.BD.d_key;
      Alcotest.(check (float 0.001)) "old" 1000. d.BD.d_old;
      Alcotest.(check (float 0.001)) "new" 10. d.BD.d_new
  | _ -> Alcotest.fail "expected exactly one cell delta in P1"

let test_bench_diff_render_and_errors () =
  let old_doc = bench_doc ~p99:100 () in
  let bad = bench_doc ~p99:1000 () in
  let s = BD.render (diff_ok old_doc bad) in
  if not (String.length s > 0) then Alcotest.fail "empty render";
  (let has_regression =
     let re = "REGRESSION" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0
   in
   Alcotest.(check bool) "render flags the regression" true has_regression);
  (match BD.diff ~old_doc:(Json.Obj []) ~new_doc:old_doc () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-bench document accepted");
  match BD.diff ~threshold:(-1.0) ~old_doc ~new_doc:old_doc () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative threshold accepted"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "flight"
    [
      ( "native-trace",
        [
          Alcotest.test_case "golden document" `Quick test_native_doc_golden;
          Alcotest.test_case "tiny doc validates" `Quick
            test_native_doc_validates;
          Alcotest.test_case "harness trace_doc" `Quick test_harness_trace_doc;
          Alcotest.test_case "validator rejects" `Quick test_validator_rejects;
        ] );
      ( "chrome",
        [ Alcotest.test_case "tracks and spans" `Quick test_chrome_tracks ] );
      ( "bench-diff",
        [
          Alcotest.test_case "self-diff clean" `Quick test_bench_diff_self;
          Alcotest.test_case "missing suite" `Quick
            test_bench_diff_missing_suite;
          Alcotest.test_case "quantile threshold" `Quick
            test_bench_diff_quantile_threshold;
          Alcotest.test_case "cells reported not gated" `Quick
            test_bench_diff_cells_reported_not_gated;
          Alcotest.test_case "render and errors" `Quick
            test_bench_diff_render_and_errors;
        ] );
    ]
