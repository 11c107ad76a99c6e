(* exsel_bench: the end-to-end and per-layer benchmark (README.md).

     exsel_bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     exsel_bench compare [--spec BENCHMARK.json] A.json[,A2.json..] B.json[,..]
     exsel_bench selftest [--spec BENCHMARK.json]

   A run prints "workload metric value unit" per metric (end-to-end with
   --trace 0, per-layer with --trace 1), writes an exsel-benchmark/1
   document (and, traced, a Chrome trace) under DIR, and ends its output
   with one JSON line {correct, attempted, failed, metrics}.  Exit codes:
   0 ok, 1 correctness violation (or regression, for compare), 2 usage. *)

module J = Exsel_obs.Json
open Common

let usage msg =
  prerr_endline ("exsel_bench: " ^ msg);
  prerr_endline
    "usage: exsel_bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       exsel_bench compare [--spec FILE] A.json[,A2.json...] B.json[,B2.json...]\n\
    \       exsel_bench selftest [--spec FILE]\n\
     workloads: lease-cycle lease-openloop rename-burst certify-sim";
  exit 2

let fmt v = Printf.sprintf "%.12g" v

(* Self time per layer, and the share of the traced wall time the spans
   account for, which must reach 90%: every traced nanosecond should sit
   in some span's self time. *)
let self_times workload (r : result) =
  let coverage = 100.0 *. Tracer.total_self_ns r.tracer /. r.traced_wall_ns in
  if coverage < 90.0 then
    Check.failf "%s: spans cover %.1f%% of the traced wall time, below 90%%" workload coverage;
  Tracer.pp_table stdout r.tracer ~workload ~wall_ns:r.traced_wall_ns;
  metric "trace.coverage_pct" "%" coverage
  :: List.map
       (fun l ->
         metric (l ^ ".self_pct") "%" (100.0 *. Tracer.self_ns r.tracer l /. r.traced_wall_ns))
       layers

let measure_workload ctx workload =
  let r =
    match workload with
    | "lease-cycle" -> Lease.cycle ctx
    | "lease-openloop" -> Lease.openloop ctx
    | "rename-burst" -> Burst.run ctx
    | _ -> Certify.run ctx
  in
  if ctx.traced then
    (r, Catalog.complete Catalog.per_layer (self_times workload r @ r.metrics))
  else (r, Catalog.complete Catalog.end_to_end r.metrics)

let doc ctx workload ~attempted metrics =
  J.Obj
    [
      ("schema", J.String "exsel-benchmark/1");
      ("workload", J.String workload);
      ("pass", J.String (if ctx.traced then "traced" else "timed"));
      ("seed", J.Int ctx.seed);
      ("seconds", J.Float ctx.seconds);
      ("correct", J.Bool (!Check.count = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int !Check.count);
      ("violations", J.List (List.map (fun s -> J.String s) (Check.messages ())));
      ( "metrics",
        J.List
          (List.map
             (fun m ->
               J.Obj
                 [
                   ("name", J.String m.name);
                   ("unit", J.String m.unit_);
                   ("value", J.Float m.value);
                   ("samples", J.List (List.map (fun v -> J.Float v) m.samples));
                 ])
             metrics) );
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run ctx ~workload ~out =
  (try mkdir_p out with Sys_error msg -> usage msg);
  let r, metrics = measure_workload ctx workload in
  let attempted = max 1 r.attempted in
  List.iter
    (fun mt -> Printf.printf "%s %s %s %s\n" workload mt.name (fmt mt.value) mt.unit_)
    metrics;
  List.iter (fun msg -> Printf.printf "# violation: %s\n" msg) (Check.messages ());
  let base =
    Filename.concat out
      (Printf.sprintf "%s-%s-seed%d" workload (if ctx.traced then "traced" else "timed") ctx.seed)
  in
  Exsel_obs.Trace_export.write_file (base ^ ".json") (doc ctx workload ~attempted metrics);
  if ctx.traced then
    Exsel_obs.Trace_export.write_file (base ^ ".trace.json") (Tracer.chrome r.tracer);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!Check.count = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int !Check.count);
            ( "metrics",
              J.Obj
                (List.map
                   (fun mt ->
                     (mt.name, J.Obj [ ("value", J.Float mt.value); ("unit", J.String mt.unit_) ]))
                   metrics) );
          ]));
  if !Check.count > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* Every workload, both passes, at tiny sizes, each in a child process
   exactly as the benchmark is run: each must exit 0, print every metric
   BENCHMARK.json names for its pass with that unit (end-to-end values
   never 0) and end with the result line; compare must pass the runs
   against themselves and fail them against a slower copy. *)
let selftest ~spec_path =
  let spec = Compare.read_json spec_path in
  let names key =
    List.map
      (fun m -> (Compare.string_field "name" m, Compare.string_field "unit" m))
      (Compare.list_field key spec)
  in
  let errors = ref 0 in
  let err fmt = Printf.ksprintf (fun s -> incr errors; prerr_endline ("selftest: " ^ s)) fmt in
  if names "end_to_end" <> Catalog.end_to_end then
    err "BENCHMARK.json end_to_end differs from the metrics the benchmark prints";
  if names "per_layer" <> Catalog.per_layer then
    err "BENCHMARK.json per_layer differs from the metrics the benchmark prints";
  let out = "benchmark/out/selftest" in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--workload"; workload; "--seed"; "1"; "--seconds"; "0.5";
               "--trace"; string_of_int trace; "--out"; out; "--small" |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let lines = In_channel.input_lines ic in
          (match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> ()
          | _ -> err "%s --trace %d: nonzero exit" workload trace);
          let expected = names (if trace = 0 then "end_to_end" else "per_layer") in
          List.iter
            (fun (name, unit_) ->
              let printed =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ w; n; v; u ] when w = workload && n = name && u = unit_ ->
                        float_of_string_opt v
                    | _ -> None)
                  lines
              in
              match printed with
              | None -> err "%s --trace %d: %s [%s] not printed" workload trace name unit_
              | Some 0.0 when trace = 0 -> err "%s: end-to-end %s reads 0" workload name
              | Some _ -> ())
            expected;
          match List.rev lines with
          | last :: _ -> (
              match Exsel_testkit.Json_parse.parse last with
              | J.Obj fields ->
                  if List.map fst fields <> [ "correct"; "attempted"; "failed"; "metrics" ] then
                    err "%s --trace %d: result line has the wrong keys" workload trace;
                  if J.member "correct" (J.Obj fields) <> Some (J.Bool true) then
                    err "%s --trace %d: violations reported" workload trace
              | _ -> err "%s --trace %d: result line is not an object" workload trace
              | exception Exsel_testkit.Json_parse.Parse msg ->
                  err "%s --trace %d: result line: %s" workload trace msg)
          | [] -> err "%s --trace %d: no output" workload trace)
        [ 0; 1 ])
    Catalog.workloads;
  let timed w = Filename.concat out (Printf.sprintf "%s-timed-seed1.json" w) in
  let all = String.concat "," (List.map timed Catalog.workloads) in
  let compare a b =
    let args = [| Sys.executable_name; "compare"; "--spec"; spec_path; a; b |] in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    ignore (In_channel.input_all ic);
    Unix.close_process_in ic
  in
  if compare all all <> Unix.WEXITED 0 then err "compare of a run against itself does not exit 0";
  (* the same run with its median latency doubled must count as a
     regression *)
  let slower = Filename.concat out "slower.json" in
  let double = function
    | J.Obj m when J.member "name" (J.Obj m) = Some (J.String "op_p50_us") ->
        J.Obj
          (List.map
             (function "value", v -> ("value", J.Float (2.0 *. Compare.number v)) | kv -> kv)
             m)
    | m -> m
  in
  let doc = Compare.read_json (timed "lease-cycle") in
  Exsel_obs.Trace_export.write_file slower
    (match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function "metrics", J.List ms -> ("metrics", J.List (List.map double ms)) | kv -> kv)
             fields)
    | d -> d);
  if compare (timed "lease-cycle") slower <> Unix.WEXITED 1 then
    err "compare does not flag a doubled op_p50_us";
  if !errors = 0 then (print_endline "selftest: ok"; 0) else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest -> (
        let rec go spec files = function
          | "--spec" :: f :: tl -> go f files tl
          | f :: tl when f <> "" && f.[0] <> '-' -> go spec (f :: files) tl
          | _ :: _ -> usage "compare: unknown option"
          | [] -> (spec, List.rev files)
        in
        match go "BENCHMARK.json" [] rest with
        | spec_path, [ a; b ] -> (
            try Compare.run ~spec_path a b with Compare.Usage msg -> usage ("compare: " ^ msg))
        | _ -> usage "compare takes two document lists")
    | "selftest" :: rest -> (
        match rest with
        | [] -> selftest ~spec_path:"BENCHMARK.json"
        | [ "--spec"; f ] -> selftest ~spec_path:f
        | _ -> usage "selftest takes only --spec FILE")
    | _ ->
        let workload = ref None and seed = ref None and seconds = ref None in
        let trace = ref None and out = ref "benchmark/out" and small = ref false in
        let int_arg flag v = match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ -> usage (Printf.sprintf "%s wants a non-negative integer, not %S" flag v)
        in
        let rec go = function
          | "--workload" :: w :: tl ->
              if not (List.mem w Catalog.workloads) then usage ("unknown workload " ^ w);
              workload := Some w;
              go tl
          | "--seed" :: v :: tl -> seed := Some (int_arg "--seed" v); go tl
          | "--seconds" :: v :: tl -> (
              match float_of_string_opt v with
              | Some s when s > 0.0 && s <= 3600.0 -> seconds := Some s; go tl
              | _ -> usage ("--seconds wants a positive number, not " ^ v))
          | "--trace" :: v :: tl -> (
              match v with
              | "0" -> trace := Some false; go tl
              | "1" -> trace := Some true; go tl
              | _ -> usage ("--trace wants 0 or 1, not " ^ v))
          | "--out" :: d :: tl -> out := d; go tl
          | "--small" :: tl -> small := true; go tl
          | a :: _ -> usage ("unknown argument " ^ a)
          | [] -> ()
        in
        go args;
        (match (!workload, !seed, !seconds, !trace) with
        | Some workload, Some seed, Some seconds, Some traced ->
            run { seed; seconds; traced; small = !small } ~workload ~out:!out
        | _ -> usage "--workload, --seed, --seconds and --trace are required")
  in
  exit code
