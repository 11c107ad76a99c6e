(* Performance-regression microbenchmarks (DESIGN.md §8).

   Four suites, each emitted as one table of the exsel-bench/1 document
   written by `bench --perf --json BENCH_perf.json`:

   P1  commit throughput — commits/sec of the simulator commit loop at
       n ∈ {16, 64, 256} processes under the round-robin policy;
   P2  scheduler-policy overhead — commits/sec of the same workload under
       sequential / round-robin / random, isolating decision cost;
   P3  explorer throughput — paths/sec of the rewritten explorer on the
       seed compete/splitter instances, next to the *seed engine*
       (replay-from-root at every DFS node, reproduced below) on the same
       instances, and the resulting speedup;
   P4  explorer pruning statistics — deterministic effort counters
       (replays, sleep-set prunes, state-hash hits/misses) per instance
       and reduction mode, tracked in the JSON but not baseline-gated;
   P5  campaign scaling — wall-clock cells/sec of one conformance
       campaign at -j 1/2/4 domains plus the speedup ratios, and a
       cross-check that every report is byte-identical to -j 1.
       Tracked in the JSON but not baseline-gated: speedup depends on
       the core count of the machine (a 1-core runner time-slices the
       domains and legitimately reports ~1.0x);
   P6  rename latency quantiles — p50/p90/p99/p999 of per-operation
       rename latency (decide − invoke in commit-clock) per algorithm at
       n ∈ {16, 64, 256}, read back from the adapters' ambient
       Exsel_obs.Metrics instrumentation; the deterministic observation
       counts are baseline-gated and the merged registry is embedded in
       the --json document as its exsel-metrics/1 "metrics" field.

   `--baseline <file>` reads `<metric> <reference>` lines and fails (exit
   1) if any measured metric drops below reference/2 — the CI regression
   gate against bench/perf_baseline.txt. *)

module Memory = Exsel_sim.Memory
module Register = Exsel_sim.Register
module Runtime = Exsel_sim.Runtime
module Scheduler = Exsel_sim.Scheduler
module Explore = Exsel_sim.Explore
module Rng = Exsel_sim.Rng
module R = Exsel_renaming
module Table = Exsel_harness.Table
module Report = Exsel_harness.Report

(* Repeat [f] (returning a unit count) until [min_seconds] of CPU time
   elapsed; returns (units/sec, units, seconds). *)
let rate ?(min_seconds = 0.3) f =
  let t0 = Sys.time () in
  let total = ref 0 in
  let iters = ref 0 in
  while Sys.time () -. t0 < min_seconds || !iters = 0 do
    total := !total + f ();
    incr iters
  done;
  let dt = Sys.time () -. t0 in
  let dt = if dt > 0.0 then dt else 1e-9 in
  (float_of_int !total /. dt, !total, dt)

(* --- P1/P2: commit-loop workload --------------------------------------- *)

(* n processes, each alternating a read of a shared register with a write
   to its own — every commit exercises suspend, schedule, resume. *)
let commit_workload n policy =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let shared = Register.create mem ~name:"shared" 0 in
  let own = Array.init n (fun i -> Register.create mem ~name:(string_of_int i) 0) in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           for _ = 1 to 50 do
             let v = Runtime.read shared in
             Runtime.write own.(i) (v + 1)
           done))
  done;
  Scheduler.run rt (policy ());
  Runtime.commits rt

let p1_commit_throughput () =
  let metrics = ref [] in
  let rows =
    List.map
      (fun n ->
        let per_sec, commits, dt =
          rate (fun () -> commit_workload n (fun () -> Scheduler.round_robin ()))
        in
        metrics := (Printf.sprintf "commit_throughput_n%d" n, per_sec) :: !metrics;
        [
          Table.cell_int n;
          Table.cell_int commits;
          Table.cell_float dt;
          Printf.sprintf "%.0f" per_sec;
        ])
      [ 16; 64; 256 ]
  in
  ( Table.make ~id:"P1" ~title:"perf: commit throughput (round-robin)"
      ~header:[ "n"; "commits"; "sec"; "commits/sec" ]
      ~notes:
        [
          "Simulator commit loop: read-shared/write-own, 100 ops per process.";
          "Tracked across PRs; CI fails if a metric halves vs the baseline.";
        ]
      rows,
    List.rev !metrics )

let p2_scheduler_overhead () =
  let n = 64 in
  let metrics = ref [] in
  let policies =
    [
      ("sequential", fun () -> Scheduler.sequential ());
      ("round_robin", fun () -> Scheduler.round_robin ());
      ("random", fun () -> Scheduler.random (Rng.create ~seed:42));
    ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        let per_sec, commits, dt = rate (fun () -> commit_workload n mk) in
        metrics := (Printf.sprintf "scheduler_%s" name, per_sec) :: !metrics;
        [ name; Table.cell_int commits; Table.cell_float dt; Printf.sprintf "%.0f" per_sec ])
      policies
  in
  ( Table.make ~id:"P2"
      ~title:(Printf.sprintf "perf: scheduler-policy overhead (n=%d)" n)
      ~header:[ "policy"; "commits"; "sec"; "commits/sec" ]
      ~notes:[ "Same workload as P1; differences isolate per-decision policy cost." ]
      rows,
    List.rev !metrics )

(* --- P3: explorer ------------------------------------------------------ *)

let compete_init n () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let c = R.Compete.create mem ~name:"c" in
  let wins = Array.make n false in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           wins.(i) <- R.Compete.compete c ~me:i))
  done;
  ((), rt)

let splitter_init n () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let s = R.Splitter.create mem ~name:"s" in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           ignore (R.Splitter.enter s ~me:i)))
  done;
  ((), rt)

(* The seed explorer engine, reproduced for comparison: re-instantiate the
   runtime and replay the whole prefix at every DFS node (O(depth^2) work
   per path, `prefix @ [x]` appends included). *)
let seed_engine_paths ~init =
  let paths = ref 0 in
  let rec explore prefix =
    let (), rt = init () in
    List.iter (fun pid -> Runtime.commit rt (Runtime.proc_by_pid rt pid)) prefix;
    match Runtime.runnable rt with
    | [] -> incr paths
    | runnable ->
        List.iter (fun p -> explore (prefix @ [ Runtime.pid p ])) runnable
  in
  explore [];
  !paths

let rewritten_paths ~init =
  (Explore.run ~init ~check:(fun () _ -> Ok ()) ()).Explore.paths

let p3_explorer () =
  let metrics = ref [] in
  let instances =
    [ ("compete x3", compete_init 3); ("splitter x2", splitter_init 2) ]
  in
  let speedups = ref [] in
  let rows =
    List.concat_map
      (fun (label, init) ->
        let seed_rate, seed_paths, seed_dt =
          rate (fun () -> seed_engine_paths ~init)
        in
        let new_rate, new_paths, new_dt = rate (fun () -> rewritten_paths ~init) in
        let speedup = new_rate /. seed_rate in
        speedups := speedup :: !speedups;
        let slug =
          String.map (function ' ' -> '_' | c -> c) label
        in
        metrics :=
          (Printf.sprintf "explorer_%s_paths_per_sec" slug, new_rate)
          :: (Printf.sprintf "explorer_%s_seed_paths_per_sec" slug, seed_rate)
          :: !metrics;
        [
          [
            label; "seed engine"; Table.cell_int seed_paths; Table.cell_float seed_dt;
            Printf.sprintf "%.0f" seed_rate; "-";
          ];
          [
            label; "rewritten"; Table.cell_int new_paths; Table.cell_float new_dt;
            Printf.sprintf "%.0f" new_rate; Printf.sprintf "%.2fx" speedup;
          ];
        ])
      instances
  in
  let min_speedup = List.fold_left min infinity !speedups in
  metrics := ("explorer_speedup", min_speedup) :: !metrics;
  ( Table.make ~id:"P3" ~title:"perf: explorer throughput, seed engine vs rewritten"
      ~header:[ "instance"; "engine"; "paths"; "sec"; "paths/sec"; "speedup" ]
      ~notes:
        [
          "Seed engine replays the full prefix at every DFS node; the rewrite";
          "replays once per emitted path.  `explorer_speedup` is the minimum";
          "per-instance ratio and must stay >= 2.";
        ]
      rows,
    List.rev !metrics )

(* --- P4: explorer pruning statistics ----------------------------------- *)

(* Not rates: absolute effort counters from the explorer's stats record,
   exported so the trajectory of pruning effectiveness (how many nodes the
   reductions cut, how much replay work a run costs) is visible across
   PRs.  Counts are deterministic per instance, so they are reported in
   the table and JSON but deliberately kept out of the throughput-style
   baseline gate. *)
let p4_pruning_stats () =
  let metrics = ref [] in
  let cases =
    [
      ("compete x3", "none", `None, compete_init 3);
      ("compete x3", "state_hash", `State_hash, compete_init 3);
      ("splitter x2", "none", `None, splitter_init 2);
      ("splitter x2", "sleep_sets", `Sleep_sets, splitter_init 2);
      ("splitter x3", "sleep_sets", `Sleep_sets, splitter_init 3);
    ]
  in
  let rows =
    List.map
      (fun (label, red_name, reduction, init) ->
        let o = Explore.run ~reduction ~init ~check:(fun () _ -> Ok ()) () in
        let st = o.Explore.stats in
        let slug =
          String.map (function ' ' -> '_' | c -> c) (label ^ "_" ^ red_name)
        in
        metrics :=
          (Printf.sprintf "explorer_%s_paths" slug, float_of_int o.Explore.paths)
          :: (Printf.sprintf "explorer_%s_replays" slug, float_of_int st.Explore.replays)
          :: !metrics;
        [
          label;
          red_name;
          Table.cell_int o.Explore.paths;
          Table.cell_int o.Explore.states;
          Table.cell_int st.Explore.max_depth;
          Table.cell_int st.Explore.replays;
          Table.cell_int st.Explore.sleep_prunes;
          Printf.sprintf "%d/%d" st.Explore.hash_hits st.Explore.hash_misses;
        ])
      cases
  in
  ( Table.make ~id:"P4" ~title:"perf: explorer pruning statistics"
      ~header:
        [ "instance"; "reduction"; "paths"; "states"; "depth"; "replays"; "sleep-prunes"; "hash hit/miss" ]
      ~notes:
        [
          "Effort counters from Explore.run's stats record (deterministic";
          "per instance).  sleep-prunes counts nodes whose every enabled";
          "move was sleeping; hash hit/miss counts memo-table lookups.";
        ]
      rows,
    List.rev !metrics )

(* --- P5: campaign scaling ---------------------------------------------- *)

(* Wall-clock (not CPU-time) measurement: with [jobs > 1] the work is
   spread across domains, so CPU time stays flat while wall time is what
   actually shrinks. *)
let time_wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let p5_campaign_scaling () =
  let module C = Exsel_conformance.Campaign in
  let cfg = { C.default with C.seeds = [ 1; 2 ]; k = 4 } in
  let metrics = ref [] in
  let json_of jobs =
    Exsel_obs.Json.to_string (C.to_json (C.run ~jobs cfg))
  in
  let reference = json_of 1 in
  let cells =
    List.length cfg.C.algos * List.length cfg.C.regimes
  in
  let base_rate = ref nan in
  let all_identical = ref true in
  let rows =
    List.map
      (fun jobs ->
        let report, dt = time_wall (fun () -> C.run ~jobs cfg) in
        let identical = json_of jobs = reference in
        all_identical := !all_identical && identical;
        let rate = float_of_int (List.length report.C.r_cells) /. dt in
        if jobs = 1 then base_rate := rate;
        let speedup = rate /. !base_rate in
        metrics :=
          (Printf.sprintf "campaign_cells_per_sec_j%d" jobs, rate)
          :: (if jobs = 1 then []
              else [ (Printf.sprintf "campaign_speedup_j%d" jobs, speedup) ])
          @ !metrics;
        [
          Table.cell_int jobs;
          Table.cell_int (List.length report.C.r_cells);
          Table.cell_float dt;
          Printf.sprintf "%.1f" rate;
          Printf.sprintf "%.2fx" speedup;
          (if identical then "yes" else "NO");
        ])
      [ 1; 2; 4 ]
  in
  if not !all_identical then begin
    prerr_endline "P5: parallel campaign report differs from -j 1";
    exit 1
  end;
  ( Table.make ~id:"P5"
      ~title:
        (Printf.sprintf "perf: campaign scaling (%d cells, seeds=2, k=%d)"
           cells cfg.C.k)
      ~header:[ "jobs"; "cells"; "wall sec"; "cells/sec"; "speedup"; "= -j 1" ]
      ~notes:
        [
          "Wall-clock time of one conformance campaign sharded across";
          "domains (Campaign.run ~jobs).  Speedup tracks the machine's";
          "core count — a 1-core runner reports ~1.0x — so these metrics";
          "are recorded in the JSON but not gated against the baseline.";
          "The `= -j 1` column asserts the exsel-conformance/1 document";
          "is byte-identical across jobs (the bench aborts if not).";
        ]
      rows,
    List.rev !metrics )

(* --- P6: rename latency quantiles -------------------------------------- *)

(* Not a rate: one seeded random-schedule run per (algorithm, n), with
   the per-operation rename-latency histogram (decide − invoke, in
   commits) that the conformance adapters record into the ambient
   Exsel_obs.Metrics registry.  The observation counts are exact —
   under the crash-free schedule every contender renames, so the count
   equals n — and they are baseline-gated: a count of 0 means the
   instrumentation came unwired, which is precisely the regression this
   suite exists to catch.  The quantiles are reported in the table and
   JSON but not gated (they are properties of the algorithms, not of
   this codebase's speed).  The per-run registries merge into one that
   the --json document embeds as its exsel-metrics/1 "metrics" field;
   there the histograms aggregate over n per algorithm, while the per-n
   quantiles live in this table. *)
let p6_latency_quantiles () =
  let module A = Exsel_conformance.Adapter in
  let module Runner = Exsel_conformance.Runner in
  let module M = Exsel_obs.Metrics in
  let merged = M.create () in
  let metrics = ref [] in
  let rows =
    List.concat_map
      (fun algo ->
        let adapter =
          match A.find algo with
          | Some a -> a
          | None ->
              Printf.eprintf "P6: unknown adapter %S\n" algo;
              exit 1
        in
        List.map
          (fun n ->
            let spec = adapter.A.make ~seed:1 ~k:n ~steps_multiple:1.0 in
            let reg = M.create () in
            M.with_ambient reg (fun () ->
                let inst = spec.Runner.init () in
                Scheduler.run inst.Runner.runtime
                  (Scheduler.random (Rng.create ~seed:(0x6e + n)));
                match inst.Runner.check () with
                | Ok () -> ()
                | Error msg ->
                    Printf.eprintf "P6: %s at n=%d violates its claim: %s\n"
                      algo n msg;
                    exit 1);
            let h =
              M.histogram reg "exsel_rename_latency_commits"
                ~labels:[ ("algo", algo) ]
            in
            let count = M.hist_count h in
            metrics :=
              (Printf.sprintf "p6_%s_renames_n%d" algo n, float_of_int count)
              :: !metrics;
            M.merge ~into:merged reg;
            [
              algo;
              Table.cell_int n;
              Table.cell_int count;
              Table.cell_int (M.hquantile h 0.50);
              Table.cell_int (M.hquantile h 0.90);
              Table.cell_int (M.hquantile h 0.99);
              Table.cell_int (M.hquantile h 0.999);
              Table.cell_int (M.hist_max h);
            ])
          [ 16; 64; 256 ])
      [ "ma"; "efficient"; "adaptive" ]
  in
  ( Table.make ~id:"P6" ~title:"perf: rename latency quantiles (commit clock)"
      ~header:[ "algo"; "n"; "renames"; "p50"; "p90"; "p99"; "p999"; "max" ]
      ~notes:
        [
          "Per-operation rename latency (decide - invoke in commits) under";
          "one seeded uniformly-random crash-free schedule, from the";
          "adapters' ambient-registry instrumentation.  The rename counts";
          "are deterministic (= n) and baseline-gated; the quantiles are";
          "nearest-rank estimates off the log-bucketed histogram (<= 3.2%";
          "relative error) and tracked but not gated.";
        ]
      rows,
    List.rev !metrics,
    merged )

(* --- P7: native rename throughput and tail latency ---------------------- *)

(* Real OCaml 5 domains over Atomic.t registers (lib/native): one run per
   (algorithm, n, domains) cell, n logical processes work-queued onto the
   domain pool.  Every cell's decision log is claim-checked post hoc
   (exclusiveness, name bound, completion) — a violation aborts the bench
   with exit 1, the same contract as P6.  Baseline-gated metrics are the
   machine-independent decided counts at the small n only, so a
   [--p7-max-n]-capped run (CI) gates the same keys as the full sweep;
   larger cells are still claim-checked.  Wall-clock throughput and the
   per-process latency quantiles are machine-dependent: table and JSON
   only, with the ns histograms merged into the embedded exsel-metrics/1
   document. *)
let p7_native_rename ?(max_n = 1024) ?(warmup = 0) () =
  let module A = Exsel_conformance.Adapter in
  let module H = Exsel_native.Harness in
  let module E = Exsel_native.Engine in
  let module M = Exsel_obs.Metrics in
  let warmup_total = ref 0L in
  let merged = M.create () in
  let metrics = ref [] in
  let ns = List.filter (fun n -> n <= max_n) [ 16; 64; 256; 1024 ] in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let gated_n = [ 16; 64 ] in
  let rows =
    List.concat_map
      (fun algo ->
        let name = algo.A.id in
        List.concat_map
          (fun n ->
            let decided_at_n = ref 0 in
            let rows =
              List.map
                (fun domains ->
                  let r = H.run ~warmup ~algo ~n ~domains ~seed:1 () in
                  warmup_total := Int64.add !warmup_total r.H.warmup_ns;
                  (match H.check r with
                  | Ok () -> ()
                  | Error msg ->
                      Printf.eprintf
                        "P7: %s at n=%d domains=%d violates its claim: %s\n"
                        name n domains msg;
                      exit 1);
                  decided_at_n := !decided_at_n + H.decided r;
                  let reg = M.create () in
                  H.observe reg r;
                  M.merge ~into:merged reg;
                  let h =
                    M.histogram reg "exsel_rename_latency_ns"
                      ~labels:[ ("algo", name); ("backend", "native") ]
                  in
                  let wall_s = Int64.to_float r.H.wall_ns /. 1e9 in
                  let throughput = float_of_int n /. wall_s in
                  [
                    name;
                    Table.cell_int n;
                    Table.cell_int domains;
                    Table.cell_int (H.decided r);
                    Printf.sprintf "%.0f" throughput;
                    Table.cell_int (M.hquantile h 0.50);
                    Table.cell_int (M.hquantile h 0.90);
                    Table.cell_int (M.hquantile h 0.99);
                    Table.cell_int (M.hquantile h 0.999);
                    Table.cell_int (M.hist_max h);
                    Printf.sprintf "%.1f"
                      (E.utilization r.H.telemetry *. 100.0);
                    Table.cell_int (H.ns_to_int r.H.telemetry.E.tl_spawn_ns);
                    Table.cell_int (H.ns_to_int r.H.telemetry.E.tl_join_ns);
                  ])
                domain_counts
            in
            if List.mem n gated_n then
              metrics :=
                ( Printf.sprintf "p7_%s_decided_n%d" name n,
                  float_of_int !decided_at_n )
                :: !metrics;
            rows)
          ns)
      (List.filter_map A.find [ "ma"; "efficient"; "adaptive" ])
  in
  ( Table.make ~id:"P7"
      ~title:"perf: native rename throughput and tail latency (OCaml 5 domains)"
      ~header:
        [
          "algo"; "n"; "domains"; "decided"; "renames/sec"; "p50 ns"; "p90 ns";
          "p99 ns"; "p999 ns"; "max ns"; "util %"; "spawn ns"; "join ns";
        ]
      ~notes:
        ([
           "Real Atomic.t registers and Domain-pool processes (lib/native),";
           "one engine run per cell; latencies are wall-clock nanoseconds";
           "per rename.  Decision logs are claim-checked post hoc; the";
           "decided counts at n <= 64 are baseline-gated (present under any";
           "--p7-max-n cap), throughput and quantiles are machine-dependent";
           "and tracked in the JSON only.  util % is busy/(wall*domains)";
           "from the engine flight record; spawn/join ns are the pool's";
           "per-run management overhead.";
         ]
        @
        if warmup = 0 then []
        else
          [
            Printf.sprintf
              "%d warmup run(s) per cell, %.1f ms total, excluded from all \
               measured columns."
              warmup
              (Int64.to_float !warmup_total /. 1e6);
          ])
      rows,
    List.rev !metrics,
    merged )

(* --- P8: service held-names steady-state throughput ---------------------- *)

(* One churn-campaign cell per (backend, regime) on a fixed small service
   (2 shards, cap 3, 5 sessions, 5 rounds, seed 1), claim-checked by the
   campaign itself.  The baseline-gated metrics are the acquire counts:
   the round planner draws only on the seeded rng and the session phase
   ledger — never on assigned slots, names or timing — so the counts are
   machine-independent on both backends (a drop means the planner or the
   service wiring changed, which is what this suite gates).  Latency
   quantiles (commit clock on sim, wall ns on native) are reported and
   merged into the JSON metrics but not gated. *)
let p8_service_churn () =
  let module Drive = Exsel_service.Drive in
  let module Churn = Exsel_service.Churn in
  let module M = Exsel_obs.Metrics in
  let merged = M.create () in
  let metrics = ref [] in
  let svc = { Drive.default with shards = 2; cap = 3; rounds = 5; seeds = [ 1 ] } in
  let underscored s = String.map (fun c -> if c = '-' then '_' else c) s in
  let rows =
    List.concat_map
      (fun backend ->
        let bname = Drive.backend_name backend in
        List.map
          (fun regime ->
            let rid = Churn.regime_id regime in
            let cfg =
              {
                Churn.service = { svc with backend };
                sessions = 5;
                regimes = [ regime ];
              }
            in
            let report = Churn.run cfg in
            let c =
              match report.Drive.r_cells with
              | [ c ] -> c
              | _ -> assert false
            in
            (match c.Drive.c_violations with
            | [] -> ()
            | v :: _ ->
                Printf.eprintf "P8: %s %s violates a service claim: %s\n"
                  bname rid v;
                exit 1);
            M.merge ~into:merged report.Drive.r_metrics;
            metrics :=
              ( Printf.sprintf "p8_%s_acquires_%s" bname (underscored rid),
                float_of_int c.Drive.c_acquires )
              :: !metrics;
            let unit =
              match backend with Drive.Sim -> "commits" | _ -> "ns"
            in
            let h =
              M.histogram c.Drive.c_metrics
                ("exsel_acquire_latency_" ^ unit)
                ~labels:[ ("regime", rid); ("backend", bname) ]
            in
            [
              bname;
              rid;
              Table.cell_int c.Drive.c_acquires;
              Table.cell_int c.Drive.c_releases;
              Table.cell_int c.Drive.c_crashes;
              Table.cell_int c.Drive.c_spills;
              Table.cell_int c.Drive.c_recycles;
              Table.cell_int c.Drive.c_max_name;
              Table.cell_int (M.hquantile h 0.50);
              Table.cell_int (M.hquantile h 0.99);
            ])
          Churn.all_regimes)
      [ Drive.Sim; Drive.Native { domains = 2 } ]
  in
  ( Table.make ~id:"P8"
      ~title:"perf: service held-names churn (sim commit clock + native domains)"
      ~header:
        [
          "backend"; "regime"; "acquires"; "releases"; "crashes"; "spills";
          "recycles"; "max name"; "acq p50"; "acq p99";
        ]
      ~notes:
        [
          "One exsel_service churn cell per (backend, regime): 2 shards,";
          "cap 3, 5 sessions, 5 rounds, seed 1, claim-checked in-run";
          "(exclusive holds, generation reuse, adaptive bound, leaks).";
          "Acquire counts depend only on the seeded round planner, never";
          "on slots/names/timing, so they are machine-independent on both";
          "backends and baseline-gated.  Acquire latency quantiles are in";
          "the backend's unit (commits on sim, wall ns on native) and";
          "tracked but not gated.";
        ]
      rows,
    List.rev !metrics,
    merged )

(* --- P9: open-loop workload latency tails ------------------------------- *)

(* One open-loop workload cell per (backend, arrival pattern) on a fixed
   small service (2 shards, cap 3, 8 rounds, rate 3, hold 2, seed 1),
   claim-checked by the campaign itself.  The baseline-gated metrics are
   the offered/served counts: arrivals are drawn from the seeded
   integer-only arrival process and acquires from the seeded session
   plans — never from slots, names or timing — so both are
   machine-independent on both backends (a drop means the arrival
   process or the open-loop wiring changed).  Acquire latency quantiles
   (commit clock on sim, wall ns on native) show the tail cost of
   clumped arrivals and are reported but not gated. *)
let p9_open_loop () =
  let module Drive = Exsel_service.Drive in
  let module Workload = Exsel_service.Workload in
  let module M = Exsel_obs.Metrics in
  let merged = M.create () in
  let metrics = ref [] in
  let svc = { Drive.default with shards = 2; cap = 3; rounds = 8; seeds = [ 1 ] } in
  let rows =
    List.concat_map
      (fun backend ->
        let bname = Drive.backend_name backend in
        List.map
          (fun pattern ->
            let pid = Workload.pattern_id pattern in
            let cfg =
              {
                Workload.default with
                service = { svc with backend };
                rate = 3;
                hold = 2;
                patterns = [ pattern ];
              }
            in
            let report = Workload.run cfg in
            let c =
              match report.Drive.r_cells with
              | [ c ] -> c
              | _ -> assert false
            in
            (match c.Drive.c_violations with
            | [] -> ()
            | v :: _ ->
                Printf.eprintf "P9: %s %s violates a service claim: %s\n"
                  bname pid v;
                exit 1);
            M.merge ~into:merged report.Drive.r_metrics;
            metrics :=
              (Printf.sprintf "p9_%s_acquires_%s" bname pid,
                float_of_int c.Drive.c_acquires)
              :: (Printf.sprintf "p9_%s_arrivals_%s" bname pid,
                   float_of_int c.Drive.c_arrivals)
              :: !metrics;
            let unit =
              match backend with Drive.Sim -> "commits" | _ -> "ns"
            in
            let h =
              M.histogram c.Drive.c_metrics
                ("exsel_workload_acquire_latency_" ^ unit)
                ~labels:[ ("pattern", pid); ("backend", bname) ]
            in
            [
              bname;
              pid;
              Table.cell_int c.Drive.c_arrivals;
              Table.cell_int c.Drive.c_admitted;
              Table.cell_int c.Drive.c_rejects;
              Table.cell_int c.Drive.c_acquires;
              Table.cell_int c.Drive.c_releases;
              Table.cell_int (M.hquantile h 0.50);
              Table.cell_int (M.hquantile h 0.99);
              Table.cell_int (M.hquantile h 0.999);
            ])
          Workload.all_patterns)
      [ Drive.Sim; Drive.Native { domains = 2 } ]
  in
  ( Table.make ~id:"P9"
      ~title:"perf: open-loop workload latency tails (sim + native)"
      ~header:
        [
          "backend"; "pattern"; "arrivals"; "admitted"; "rejected"; "acquires";
          "releases"; "acq p50"; "acq p99"; "acq p999";
        ]
      ~notes:
        [
          "One exsel_service open-loop workload cell per (backend,";
          "pattern): 2 shards, cap 3, 8 rounds, rate 3, hold 2, seed 1,";
          "claim-checked in-run.  Arrivals are drawn from the seeded";
          "integer-only arrival process and acquires from the seeded";
          "session plans, never from slots/names/timing, so both counts";
          "are machine-independent on both backends and baseline-gated.";
          "Acquire latency quantiles are in the backend's unit (commits";
          "on sim, wall ns on native) and tracked but not gated.";
        ]
      rows,
    List.rev !metrics,
    merged )

(* --- driver ------------------------------------------------------------ *)

let suite_ids = [ "P1"; "P2"; "P3"; "P4"; "P5"; "P6"; "P7"; "P8"; "P9" ]

let run ~json ~baseline ~only ~p7_max_n ~warmup =
  let registry = Exsel_obs.Metrics.create () in
  let with_registry f () =
    let table, metrics, reg = f () in
    Exsel_obs.Metrics.merge ~into:registry reg;
    (table, metrics)
  in
  let suites =
    [
      ("P1", p1_commit_throughput);
      ("P2", p2_scheduler_overhead);
      ("P3", p3_explorer);
      ("P4", p4_pruning_stats);
      ("P5", p5_campaign_scaling);
      ("P6", with_registry p6_latency_quantiles);
      ( "P7",
        with_registry (fun () -> p7_native_rename ?max_n:p7_max_n ?warmup ()) );
      ("P8", with_registry p8_service_churn);
      ("P9", with_registry p9_open_loop);
    ]
  in
  let selected =
    match only with
    | None -> suites
    | Some id -> (
        let id = String.uppercase_ascii id in
        match List.filter (fun (i, _) -> i = id) suites with
        | [] ->
            Printf.eprintf "unknown perf suite %S; valid ids: %s\n" id
              (String.concat " " suite_ids);
            exit 2
        | sel -> sel)
  in
  let tables_metrics = List.map (fun (_, f) -> f ()) selected in
  let entries =
    List.map (fun (table, _) -> { Report.table; runs = [] }) tables_metrics
  in
  let metrics = List.concat_map snd tables_metrics in
  List.iter (fun e -> Table.print e.Report.table; flush stdout) entries;
  (match json with
  | None -> ()
  | Some path ->
      Report.write_file ~metrics:registry path entries;
      Printf.printf "wrote %s (%d perf suites, %d metrics)\n" path (List.length entries)
        (List.length metrics));
  match baseline with
  | None -> ()
  | Some path ->
      let ic = open_in path in
      let refs = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && not (String.length line > 0 && line.[0] = '#') then
             Scanf.sscanf line "%s %f" (fun k v -> refs := (k, v) :: !refs)
         done
       with End_of_file -> close_in ic);
      let failures = ref 0 in
      List.iter
        (fun (key, reference) ->
          match List.assoc_opt key metrics with
          | None
            when only <> None
                 || (p7_max_n <> None && String.starts_with ~prefix:"p7_" key)
            ->
              (* a restricted run (--only, or a --p7-max-n cap below the
                 gated n) legitimately skips those keys *)
              ()
          | None ->
              incr failures;
              Printf.eprintf "perf baseline: metric %S missing from this run\n" key
          | Some measured ->
              let floor = reference /. 2.0 in
              if measured < floor then begin
                incr failures;
                Printf.eprintf
                  "perf baseline: %s regressed: measured %.0f < %.0f (reference %.0f / 2)\n"
                  key measured floor reference
              end
              else
                Printf.printf "perf baseline: %s ok (%.0f >= %.0f)\n" key measured floor)
        !refs;
      if !failures > 0 then exit 1
