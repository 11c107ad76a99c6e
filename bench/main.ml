(* Benchmark harness: regenerates every table and figure of the
   reproduction (see DESIGN.md §3 and EXPERIMENTS.md).

   Default mode prints the experiment tables T1-T9 and figures F1-F2 with
   simulated local-step counts — the paper's complexity measure.

   --json <file> writes every selected table plus the per-run
   observations (metrics summary, register contention profile, phase-span
   aggregates) as one exsel-bench/1 document — see DESIGN.md §7.

   --perf runs the hot-path microbenchmark suites of bench/perf.ml
   instead of the experiment tables (combine with --json to emit
   BENCH_perf.json, and --baseline to gate against a reference file).

   --conformance runs a small conformance-campaign smoke (every honest
   algorithm adapter under every fault regime, 2 seeds, k = 4) and exits
   1 on any claim violation — the cheap CI gate in front of the full
   seeded campaign of `exsel_cli conformance`.

   --only <ID> restricts any experiment mode to a single experiment. *)

module E = Exsel_harness.Experiments
module Report = Exsel_harness.Report
module Table = Exsel_harness.Table

let experiments = E.all_named

let valid_ids () = String.concat " " (List.map fst experiments)

let selected only =
  match only with
  | None -> experiments
  | Some id -> (
      let id = String.uppercase_ascii id in
      match List.filter (fun (i, _) -> i = id) experiments with
      | [] ->
          Printf.eprintf "unknown experiment id %S; valid ids: %s\n" id
            (valid_ids ());
          exit 2
      | sel -> sel)

let print_tables only =
  List.iter
    (fun (_, f) ->
      let t = f () in
      Table.print t;
      flush stdout)
    (selected only)

let write_json only path =
  let entries = Report.observe (selected only) in
  List.iter (fun e -> Table.print e.Report.table; flush stdout) entries;
  Report.write_file path entries;
  Printf.printf "wrote %s (%d experiments)\n" path (List.length entries)

let run_conformance ~json =
  let module C = Exsel_conformance.Campaign in
  let cfg = { C.default with seeds = [ 1; 2 ]; k = 4 } in
  let t0 = Sys.time () in
  let report = C.run cfg in
  Format.printf "%a%!" C.pp_summary report;
  Printf.printf "conformance smoke: %d cells in %.2fs cpu\n"
    (List.length report.C.r_cells)
    (Sys.time () -. t0);
  (match json with
  | Some path ->
      Exsel_obs.Trace_export.write_file path (C.to_json report);
      Printf.printf "wrote %s\n" path
  | None -> ());
  if report.C.r_violations > 0 then exit 1

let usage_text () =
  Printf.sprintf
    "usage: %s [--perf | --conformance] [--json <file>]\n\
    \       %*s [--baseline <file>] [--only <T1..T9|F1|F2|A1..A3|X1..X3|P1..P9>]\n\
    \       %*s [--p7-max-n <n>] [--warmup <k>]\n\n\
     modes (mutually exclusive):\n\
    \  (default)          print the experiment tables\n\
    \  --perf             run the hot-path microbenchmarks (DESIGN.md \xc2\xa78)\n\
    \  --conformance      run the conformance-campaign smoke (exit 1 on any\n\
    \                     claim violation)\n\n\
     options:\n\
    \  --json <file>      write results as an exsel-bench/1 JSON document\n\
    \                     (exsel-conformance/1 with --conformance)\n\
    \  --baseline <file>  with --perf: fail (exit 1) if any metric drops\n\
    \                     below half its reference value in <file>\n\
    \  --only <ID>        restrict to one experiment (or, with --perf, one\n\
    \                     perf suite P1..P9).  IDs are case-insensitive:\n\
    \                     they are normalized to upper case before\n\
    \                     matching, so `--only t3` selects T3\n\
    \  --p7-max-n <n>     with --perf: cap the native-suite sweep at n\n\
    \                     contenders (full sweep reaches n=1024; CI smokes\n\
    \                     cap it to stay fast)\n\
    \  --warmup <k>       with --perf: run k throwaway native campaigns per\n\
    \                     P7 cell before the measured one; their cost is\n\
    \                     reported separately, never in the latencies\n\
    \  --help             show this message\n"
    Sys.argv.(0)
    (String.length Sys.argv.(0))
    ""
    (String.length Sys.argv.(0))
    ""

let usage_error msg =
  Printf.eprintf "%s: %s\n%s" Sys.argv.(0) msg (usage_text ());
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse perf conf only json baseline p7_max_n warmup = function
    | [] -> (perf, conf, only, json, baseline, p7_max_n, warmup)
    | ("--help" | "-help" | "-h") :: _ ->
        print_string (usage_text ());
        exit 0
    | "--perf" :: rest ->
        parse true conf only json baseline p7_max_n warmup rest
    | "--conformance" :: rest ->
        parse perf true only json baseline p7_max_n warmup rest
    | "--only" :: id :: rest ->
        parse perf conf (Some id) json baseline p7_max_n warmup rest
    | "--json" :: path :: rest ->
        parse perf conf only (Some path) baseline p7_max_n warmup rest
    | "--baseline" :: path :: rest ->
        parse perf conf only json (Some path) p7_max_n warmup rest
    | "--p7-max-n" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n > 0 ->
            parse perf conf only json baseline (Some n) warmup rest
        | Some _ | None ->
            usage_error
              (Printf.sprintf "--p7-max-n expects a positive integer (got %S)" v))
    | "--warmup" :: v :: rest -> (
        match int_of_string_opt v with
        | Some k when k >= 0 ->
            parse perf conf only json baseline p7_max_n (Some k) rest
        | Some _ | None ->
            usage_error
              (Printf.sprintf "--warmup expects a non-negative integer (got %S)" v))
    | [ ("--only" | "--json" | "--baseline" | "--p7-max-n" | "--warmup") ] as flag
      ->
        usage_error (Printf.sprintf "%s requires an argument" (List.hd flag))
    | arg :: _ -> usage_error (Printf.sprintf "unexpected argument %S" arg)
  in
  let perf, conf, only, json, baseline, p7_max_n, warmup =
    parse false false None None None None None args
  in
  if perf && conf then usage_error "--perf and --conformance are mutually exclusive";
  if baseline <> None && not perf then usage_error "--baseline requires --perf";
  if p7_max_n <> None && not perf then usage_error "--p7-max-n requires --perf";
  if warmup <> None && not perf then usage_error "--warmup requires --perf";
  if only <> None && conf then usage_error "--only does not apply to --conformance";
  if perf then Perf.run ~json ~baseline ~only ~p7_max_n ~warmup
  else if conf then run_conformance ~json
  else
    match json with
    | Some path -> write_json only path
    | None -> print_tables only
