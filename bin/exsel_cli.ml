(* exsel — command-line driver for the asynchronous-exclusive-selection
   library: run any renaming algorithm, repository, or experiment from the
   shell with explicit seeds and crash schedules. *)

open Exsel_sim
module R = Exsel_renaming
module SD = Exsel_repository.Selfish_deposit
module AD = Exsel_repository.Altruistic_deposit
module UN = Exsel_repository.Unbounded_naming
module Adversary = Exsel_lowerbound.Adversary
module E = Exsel_harness.Experiments
module Report = Exsel_harness.Report
module Table = Exsel_harness.Table
module Json = Exsel_obs.Json
module Probe = Exsel_obs.Probe
module Span = Exsel_obs.Span
module Trace_export = Exsel_obs.Trace_export
module Conf_adapter = Exsel_conformance.Adapter
module Runner = Exsel_conformance.Runner
(* Exsel_sim.Metrics (per-run summaries) is shadowed by [open Exsel_sim]
   below; the registry subsystem gets an unambiguous alias. *)
module Obs_metrics = Exsel_obs.Metrics

let spread ~count ~bound = List.init count (fun i -> i * (max 1 (bound / count)) mod bound)

(* Every usage error: a specific message on stderr, then exit 2. *)
let usage fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* -j 0 means "one domain per core"; anything negative is a usage error. *)
let resolve_jobs jobs =
  if jobs < 0 then usage "--jobs must be >= 0 (got %d)" jobs
  else if jobs = 0 then Exsel_sim.Pool.default_jobs ()
  else jobs

(* An unwritable output path is a usage error (exit 2), caught before any
   work runs rather than after a long campaign. *)
let open_out_or_exit2
    ?(mode = [ Open_wronly; Open_creat; Open_trunc; Open_text ]) path =
  try open_out_gen mode 0o666 path
  with Sys_error msg -> usage "cannot open output file: %s" msg

(* FILE outputs written only at the end (--json, --chrome, --trace) are
   probed up front the same way.  The probe appends, and removes a file it
   created, so an output the run then has nothing to write (conformance
   --chrome with no violation) leaves no empty file behind. *)
let check_outputs =
  List.iter
    (Option.iter (fun path ->
         let existed = Sys.file_exists path in
         let mode = [ Open_wronly; Open_creat; Open_append ] in
         close_out (open_out_or_exit2 ~mode path);
         if not existed then Sys.remove path))

let check_us_per_commit us =
  if us <= 0 then usage "--us-per-commit must be positive (got %d)" us

(* Instance sizes are checked before any work: a size the algorithms
   cannot build is a usage error, never an uncaught exception or a
   vacuous run. *)
let check_positive (flag, v) =
  if v <= 0 then usage "%s must be positive (got %d)" flag v

let check_at_least_two (flag, k) = if k < 2 then usage "%s must be at least 2" flag

let check_name_space ~flag (a : Conf_adapter.t) k =
  if k > a.Conf_adapter.max_k then
    usage "%s %d exceeds the %d original names %s draws from" flag k
      a.Conf_adapter.max_k a.Conf_adapter.id

(* NDJSON event emitter for the exsel-events/1 streams: every line is
   written and flushed under one mutex, so events arriving concurrently
   from -j N worker domains never interleave mid-line. *)
type emitter = { em_mutex : Mutex.t; em_sinks : out_channel list }

let make_emitter ~events_oc ~progress =
  let sinks =
    (match events_oc with Some oc -> [ oc ] | None -> [])
    @ if progress then [ stderr ] else []
  in
  { em_mutex = Mutex.create (); em_sinks = sinks }

let emit em j =
  if em.em_sinks <> [] then begin
    Mutex.lock em.em_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock em.em_mutex)
      (fun () ->
        let line = Json.to_string j in
        List.iter
          (fun oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
          em.em_sinks)
  end

(* The channel was opened (and the path validated) before the run began;
   the exposition is written once, at the end. *)
let write_openmetrics oc path reg =
  output_string oc (Obs_metrics.to_openmetrics reg);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* rename subcommand                                                   *)
(* ------------------------------------------------------------------ *)

type algo =
  | Moir_anderson
  | Snapshot_renaming
  | Majority
  | Basic
  | Polylog
  | Efficient
  | Almost_adaptive
  | Adaptive
  | Chain

(* The simulator's algorithms, each with its names, canonical first. *)
let sim_algos =
  [
    (Moir_anderson, [ "ma"; "moir-anderson" ]);
    (Snapshot_renaming, [ "snapshot"; "attiya" ]);
    (Majority, [ "majority" ]);
    (Basic, [ "basic" ]);
    (Polylog, [ "polylog" ]);
    (Efficient, [ "efficient" ]);
    (Almost_adaptive, [ "almost-adaptive" ]);
    (Adaptive, [ "adaptive" ]);
    (Chain, [ "chain" ]);
  ]

let algo_name a = List.hd (List.assoc a sim_algos)

let sim_algo name =
  match List.find_opt (fun (_, names) -> List.mem name names) sim_algos with
  | Some (a, _) -> a
  | None -> usage "--algo: unknown algorithm %S on the simulator" name

(* Returns the rename function together with the instance's name bound M
   (used by the adversary's stage-budget formula). *)
let build_renamer algo mem ~k ~n ~n_names ~seed =
  let rng = Rng.create ~seed in
  match algo with
  | Moir_anderson ->
      let ma = R.Moir_anderson.create mem ~name:"ma" ~side:k in
      ((fun ~me -> R.Moir_anderson.rename ma ~me), R.Moir_anderson.capacity ma)
  | Snapshot_renaming ->
      let a = R.Attiya_renaming.create mem ~name:"at" ~slots:n_names () in
      ((fun ~me -> R.Attiya_renaming.rename a ~slot:me), (2 * k) - 1)
  | Majority ->
      let m = R.Majority.create ~rng mem ~name:"maj" ~l:k ~inputs:n_names in
      ((fun ~me -> R.Majority.rename m ~me), R.Majority.names m)
  | Basic ->
      let b = R.Basic_rename.create ~rng mem ~name:"bas" ~k ~inputs:n_names in
      ((fun ~me -> R.Basic_rename.rename b ~me), R.Basic_rename.names b)
  | Polylog ->
      let p = R.Polylog_rename.create ~rng mem ~name:"pl" ~k ~inputs:n_names in
      ((fun ~me -> R.Polylog_rename.rename p ~me), R.Polylog_rename.names p)
  | Efficient ->
      let e = R.Efficient_rename.create ~rng mem ~name:"ef" ~k in
      ((fun ~me -> R.Efficient_rename.rename e ~me), R.Efficient_rename.names e)
  | Almost_adaptive ->
      let a = R.Almost_adaptive.create ~rng mem ~name:"aa" ~n ~inputs:n_names in
      ( (fun ~me -> Some (R.Almost_adaptive.rename a ~me)),
        R.Almost_adaptive.name_bound_for_contention a ~k )
  | Adaptive ->
      let a = R.Adaptive_rename.create ~rng mem ~name:"ad" ~n in
      ( (fun ~me -> Some (R.Adaptive_rename.rename a ~me)),
        R.Adaptive_rename.name_bound_for_contention ~k )
  | Chain ->
      let c = R.Chain_rename.create mem ~name:"ch" ~m:((2 * k) - 1) in
      ((fun ~me -> R.Chain_rename.rename c ~me), R.Chain_rename.names c)

(* --backend native runs any conformance adapter; the simulator's
   spellings of ma and attiya are aliases. *)
let native_adapter name =
  let id =
    match name with "moir-anderson" -> "ma" | "snapshot" -> "attiya" | s -> s
  in
  match Conf_adapter.find id with
  | Some a -> a
  | None ->
      usage "--backend native runs the conformance adapters (%s; got %s)"
        (String.concat ", " (Conf_adapter.ids ()))
        name

(* Native-backend rename: real Atomic.t registers, real domains
   (lib/native), on the adapter's own instance, ids and seeds.  The
   contender count is --procs and the instance is sized for exactly that
   contention; there is no scheduler, no crash injection and no commit
   clock, so the sim-only flags are rejected up front and the adapter's
   claims are checked post hoc on the decision log.  The run always
   probes the backend (per-register counters feed --profile and
   --metrics-out; one interactive run does not care about the overhead),
   and the engine's flight record feeds --trace/--chrome wall-clock
   documents (DESIGN.md §13). *)
let run_rename_native (algo : Conf_adapter.t) procs seed domains warmup
    profile json trace chrome metrics_out =
  let module H = Exsel_native.Harness in
  let module E = Exsel_native.Engine in
  check_positive ("--procs", procs);
  check_name_space ~flag:"--procs" algo procs;
  if warmup < 0 then usage "--warmup must be non-negative (got %d)" warmup;
  let metrics_oc = Option.map open_out_or_exit2 metrics_out in
  check_outputs [ json; trace; chrome ];
  let r = H.run ~warmup ~probe:true ~algo ~n:procs ~domains ~seed () in
  let reg =
    match Obs_metrics.ambient () with
    | Some reg -> reg
    | None -> Obs_metrics.create ()
  in
  H.observe reg r;
  Printf.printf "process  original  new-name  latency-ns  status\n";
  Array.iteri
    (fun i me ->
      Printf.printf "p%-6d  %-8d  %-8s  %-10Ld  done\n" i me
        (match r.H.names.(i) with Some nm -> string_of_int nm | None -> "-")
        r.H.latency_ns.(i))
    r.H.ids;
  Printf.printf "backend: native  domains: %d  registers: %d  wall: %.3f ms\n"
    domains r.H.registers
    (Int64.to_float r.H.wall_ns /. 1e6);
  let tl = r.H.telemetry in
  Printf.printf
    "engine: %d worker(s)  utilization %.1f%%  spawn %.3f ms  join %.3f ms\n"
    tl.E.tl_domains
    (E.utilization tl *. 100.0)
    (Int64.to_float tl.E.tl_spawn_ns /. 1e6)
    (Int64.to_float tl.E.tl_join_ns /. 1e6);
  if r.H.warmup > 0 then
    Printf.printf "warmup: %d run(s), %.3f ms (excluded from measurements)\n"
      r.H.warmup
      (Int64.to_float r.H.warmup_ns /. 1e6);
  if profile then begin
    Printf.printf "per-domain:\n";
    Array.iter
      (fun (w : E.worker_stat) ->
        Printf.printf "  domain %-3d  tasks %-5d  busy %.3f ms\n" w.E.ws_worker
          w.E.ws_tasks
          (Int64.to_float w.E.ws_busy_ns /. 1e6))
      tl.E.tl_workers;
    Printf.printf "hot registers (reads+writes, hottest first):\n";
    List.iter
      (fun (s : H.reg_stat) ->
        Printf.printf "  %-12s  reads %-8d  writes %-8d  total %d\n" s.H.rs_name
          s.H.rs_reads s.H.rs_writes
          (s.H.rs_reads + s.H.rs_writes))
      (H.hot_registers r)
  end;
  let h =
    Obs_metrics.histogram reg "exsel_rename_latency_ns"
      ~labels:[ ("algo", r.H.algo); ("backend", "native") ]
  in
  Printf.printf
    "latency ns: p50=%d p90=%d p99=%d p999=%d max=%d (%d renames)\n"
    (Obs_metrics.hquantile h 0.50)
    (Obs_metrics.hquantile h 0.90)
    (Obs_metrics.hquantile h 0.99)
    (Obs_metrics.hquantile h 0.999)
    (Obs_metrics.hist_max h) (Obs_metrics.hist_count h);
  let claim = H.check r in
  (match claim with
  | Ok () ->
      let names = Array.to_list r.H.names |> List.filter_map Fun.id in
      Printf.printf "exclusive: yes  max-name: %d  bound: %d\n"
        (List.fold_left max (-1) names)
        r.H.bound
  | Error msg -> Printf.printf "claim VIOLATED: %s\n" msg);
  (match json with
  | Some path ->
      let assignment =
        Array.to_list
          (Array.mapi
             (fun i me ->
               Json.Obj
                 [
                   ("process", Json.String (Printf.sprintf "p%d" i));
                   ("original", Json.Int me);
                   ( "name",
                     match r.H.names.(i) with
                     | Some nm -> Json.Int nm
                     | None -> Json.Null );
                   ("latency_ns", Json.Int (H.ns_to_int r.H.latency_ns.(i)));
                   ("status", Json.String "done");
                 ])
             r.H.ids)
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.String "exsel-rename/1");
            ("algorithm", Json.String r.H.algo);
            ("backend", Json.String "native");
            ("domains", Json.Int domains);
            ("seed", Json.Int seed);
            ("assignment", Json.List assignment);
            ("wall_ns", Json.Int (Int64.to_int r.H.wall_ns));
            ("registers", Json.Int r.H.registers);
            ("metrics", Obs_metrics.to_json reg);
          ]
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Json.output oc doc);
      Printf.printf "wrote %s\n" path
  | None -> ());
  let flight = lazy (H.trace_doc r) in
  (match trace with
  | Some path ->
      Trace_export.write_file path
        (Trace_export.Native.to_json (Lazy.force flight));
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match chrome with
  | Some path ->
      Trace_export.write_file path
        (Trace_export.Native.chrome (Lazy.force flight));
      Printf.printf "wrote %s (open at ui.perfetto.dev)\n" path
  | None -> ());
  (match (metrics_oc, metrics_out) with
  | Some oc, Some path -> write_openmetrics oc path reg
  | _ -> ());
  if claim <> Ok () then exit 1

let run_rename_sim algo k n n_names procs seed crashes profile json chrome
    us_per_commit =
  List.iter check_positive
    [ ("--contention", k); ("--total", n); ("--names", n_names); ("--procs", procs) ];
  (* the paper's input: distinct original names from [0, --names) *)
  if procs > n_names then
    usage "--procs %d exceeds --names %d: contenders need distinct original names"
      procs n_names;
  List.iter
    (fun (commit, pid) ->
      if pid >= procs then
        usage "--crash %d@%d: no process %d among --procs %d" pid commit pid procs)
    crashes;
  check_us_per_commit us_per_commit;
  check_outputs [ json; chrome ];
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let rename, _m = build_renamer algo mem ~k ~n ~n_names ~seed in
  let ids = spread ~count:procs ~bound:n_names in
  let observing = profile || json <> None || chrome <> None in
  (* span sink before spawning (bodies may open spans at spawn time),
     probe after, so its initial scan sees the whole pending burst *)
  let span = if observing then Some (Span.attach rt) else None in
  let trace = if chrome <> None then Some (Trace.attach rt) else None in
  let results = Array.make procs None in
  List.iteri
    (fun i me ->
      ignore
        (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
             results.(i) <- rename ~me)))
    ids;
  let probe = if observing then Some (Probe.attach rt) else None in
  let policy = Scheduler.random (Rng.create ~seed:(seed + 1)) in
  let policy =
    if crashes = [] then policy else Scheduler.with_crashes ~crash_at:crashes policy
  in
  Scheduler.run ~max_commits:500_000_000 rt policy;
  let summary = Metrics.of_runtime rt in
  Printf.printf "process  original  new-name  steps  status\n";
  List.iteri
    (fun i (p, me) ->
      Printf.printf "p%-6d  %-8d  %-8s  %-5d  %s\n" i me
        (match results.(i) with Some nm -> string_of_int nm | None -> "-")
        (Runtime.steps p)
        (match Runtime.status p with
        | Runtime.Done -> "done"
        | Runtime.Crashed -> "crashed"
        | Runtime.Runnable -> "runnable"))
    (List.combine (Runtime.procs rt) ids);
  let names = Array.to_list results |> List.filter_map Fun.id in
  let distinct = List.length (List.sort_uniq compare names) = List.length names in
  Format.printf "%a@." Metrics.pp summary;
  Printf.printf "exclusive: %s  max-name: %d\n"
    (if distinct then "yes" else "NO (BUG)")
    (List.fold_left max (-1) names);
  (match (span, probe) with
  | Some sp, Some pr ->
      let report = Probe.report pr in
      let aggs = Span.aggregate sp in
      if profile then begin
        Format.printf "%a@." Probe.pp report;
        Format.printf "%a@." Span.pp_aggregate aggs
      end;
      (match json with
      | Some path ->
          let assignment =
            List.mapi
              (fun i (p, me) ->
                Json.Obj
                  [
                    ("process", Json.String (Printf.sprintf "p%d" i));
                    ("original", Json.Int me);
                    ( "name",
                      match results.(i) with Some nm -> Json.Int nm | None -> Json.Null );
                    ("steps", Json.Int (Runtime.steps p));
                    ( "status",
                      Json.String
                        (match Runtime.status p with
                        | Runtime.Done -> "done"
                        | Runtime.Crashed -> "crashed"
                        | Runtime.Runnable -> "runnable") );
                  ])
              (List.combine (Runtime.procs rt) ids)
          in
          let doc =
            Json.Obj
              [
                ("schema", Json.String "exsel-rename/1");
                ("algorithm", Json.String (algo_name algo));
                ("seed", Json.Int seed);
                ("assignment", Json.List assignment);
                ("summary", Json.of_summary summary);
                ("probe", Probe.to_json report);
                ("spans", Span.aggregate_to_json aggs);
                ("span_trees", Span.to_json sp);
              ]
          in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> Json.output oc doc);
          Printf.printf "wrote %s\n" path
      | None -> ());
      (match (chrome, trace) with
      | Some path, Some tr ->
          (* one Perfetto track per process: phase spans as bars, commits
             (with their values) and lifecycle marks as instants *)
          Trace_export.write_file path
            (Trace_export.chrome ~spans:sp ~us_per_commit (Trace.events tr));
          Printf.printf "wrote %s (open at ui.perfetto.dev)\n" path
      | _ -> ());
      Span.detach sp
  | _ -> ());
  if not distinct then exit 1

(* Backend dispatch.  The sim path is byte-identical to the historical
   behaviour; each backend rejects the other's exclusive flags with a
   specific message and exit 2.  Native now renders --profile (register
   contention + per-domain stats from the probe/flight record) and
   --chrome (wall-clock trace) natively; --crash stays sim-only (real
   domains cannot be crashed mid-run), while --trace/--metrics-out/
   --warmup/--domains are native-only on this subcommand. *)
let run_rename backend domains warmup algo k n n_names procs seed crashes
    profile json trace chrome metrics_out us_per_commit =
  match backend with
  | "sim" ->
      let algo = sim_algo algo in
      let reject_native_only name = function
        | None -> ()
        | Some _ -> usage "%s applies only to --backend native" name
      in
      reject_native_only "--domains" domains;
      reject_native_only "--warmup" warmup;
      reject_native_only "--trace" trace;
      reject_native_only "--metrics-out" metrics_out;
      run_rename_sim algo k n n_names procs seed crashes profile json chrome
        us_per_commit
  | "native" ->
      let algo = native_adapter algo in
      if crashes <> [] then
        usage
          "--crash applies only to --backend sim (native domains cannot be \
           crashed mid-run)";
      let domains =
        match domains with
        | Some d when d <= 0 -> usage "--domains must be positive (got %d)" d
        | Some d -> d
        | None -> 4
      in
      run_rename_native algo procs seed domains
        (Option.value warmup ~default:0)
        profile json trace chrome metrics_out
  | other -> usage "unknown backend %S (expected sim or native)" other

(* ------------------------------------------------------------------ *)
(* deposit subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_deposit altruistic n per crashed seed =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  if altruistic then begin
    let ad = AD.create mem ~name:"ad" ~n in
    let acked = ref [] in
    AD.spawn_all rt ad
      ~values:(fun me -> List.init per (fun v -> (100 * me) + v))
      ~on_deposit:(fun ~me ~index ~value -> acked := (me, index, value) :: !acked);
    let rng = Rng.create ~seed in
    Scheduler.run_for rt ~commits:(200 * n) (Scheduler.random rng);
    List.iter
      (fun p ->
        let nm = Runtime.proc_name p in
        if
          List.exists
            (fun i ->
              nm = Printf.sprintf "depositor%d" i || nm = Printf.sprintf "provider%d" i)
            (List.init crashed Fun.id)
        then Runtime.crash rt p)
      (Runtime.procs rt);
    Scheduler.run ~max_commits:500_000_000 rt (Scheduler.random rng);
    Printf.printf "altruistic repository: n=%d per=%d crashed=%d\n" n per crashed;
    Printf.printf "acknowledged deposits: %d\n" (List.length !acked);
    Printf.printf "registers deposited:   %d\n" (List.length (AD.deposits ad));
    let stranded =
      Exsel_repository.Help_board.stranded (AD.board ad) ~alive:(fun q -> q >= crashed)
    in
    Printf.printf "names stranded:        %d (bound n(n-1) = %d)\n"
      (List.length stranded)
      (n * (n - 1))
  end
  else begin
    let sd = SD.create mem ~name:"sd" ~n in
    let procs =
      Array.init n (fun i ->
          Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
              for v = 1 to per do
                ignore (SD.deposit sd ~me:i ((100 * i) + v))
              done))
    in
    let rng = Rng.create ~seed in
    Scheduler.run_for rt ~commits:(100 * n) (Scheduler.random rng);
    for i = 0 to crashed - 1 do
      Runtime.crash rt procs.(i)
    done;
    Scheduler.run ~max_commits:500_000_000 rt (Scheduler.random rng);
    let pinned = SD.pinned sd ~alive:(fun q -> q >= crashed) in
    Printf.printf "selfish repository: n=%d per=%d crashed=%d\n" n per crashed;
    Printf.printf "registers deposited: %d\n" (List.length (SD.deposits sd));
    Printf.printf "registers pinned:    %d (bound n-1 = %d)\n" (List.length pinned) (n - 1)
  end;
  Format.printf "%a@." Metrics.pp (Metrics.of_runtime rt)

(* ------------------------------------------------------------------ *)
(* naming subcommand                                                   *)
(* ------------------------------------------------------------------ *)

let run_naming n per seed =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let un = UN.create mem ~name:"un" ~n in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
           for _ = 1 to per do
             ignore (UN.acquire un ~me:i)
           done))
  done;
  Scheduler.run ~max_commits:500_000_000 rt (Scheduler.random (Rng.create ~seed));
  let names = UN.committed_names un in
  let distinct = List.length (List.sort_uniq compare names) = List.length names in
  Printf.printf "unbounded naming: n=%d per-process=%d\n" n per;
  Printf.printf "committed: %d  exclusive: %s  high-water: %d\n" (List.length names)
    (if distinct then "yes" else "NO (BUG)")
    (List.fold_left max 0 names);
  List.iter
    (fun (name, owner) -> Printf.printf "  name %-4d -> p%d\n" name owner)
    (UN.committed un);
  if not distinct then exit 1

(* ------------------------------------------------------------------ *)
(* adversary subcommand                                                *)
(* ------------------------------------------------------------------ *)

let run_adversary algo k n_names seed =
  let algo = sim_algo algo in
  List.iter check_positive [ ("--contention", k); ("--names", n_names) ];
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let rename, m = build_renamer algo mem ~k ~n:k ~n_names ~seed in
  let spawn v =
    Runtime.spawn rt ~name:(Printf.sprintf "p%d" v) (fun () -> ignore (rename ~me:v))
  in
  let r = Memory.registers mem in
  let res = Adversary.force rt ~spawn ~n_names ~k ~m ~r in
  Printf.printf "adversary vs %s: N=%d k=%d r=%d\n" (algo_name algo) n_names k
    r;
  List.iter
    (fun s ->
      Printf.printf "  stage %d: pool %d -> %d via %s on register %d\n"
        s.Adversary.index s.Adversary.pool_before s.Adversary.pool_after
        (match s.Adversary.op_class with `Read -> "reads" | `Write -> "writes")
        s.Adversary.register)
    res.Adversary.stages;
  Printf.printf "forced %d stages (theory %d); bound %d; measured max steps %d\n"
    res.Adversary.forced_stages res.Adversary.theoretical_stages res.Adversary.bound
    res.Adversary.max_steps

(* ------------------------------------------------------------------ *)
(* lease subcommand (long-lived renaming)                              *)
(* ------------------------------------------------------------------ *)

let run_lease n rounds seed =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let ll = R.Long_lived.create mem ~name:"ll" ~n in
  let max_seen = ref 0 in
  let acquires = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
           for _ = 1 to rounds do
             let x = R.Long_lived.acquire ll ~me:i in
             incr acquires;
             if x > !max_seen then max_seen := x;
             R.Long_lived.release ll ~me:i
           done))
  done;
  Scheduler.run ~max_commits:500_000_000 rt (Scheduler.random (Rng.create ~seed));
  Printf.printf "long-lived renaming: n=%d rounds=%d\n" n rounds;
  Printf.printf "acquires: %d  max name: %d  (2n-1 = %d)\n" !acquires !max_seen
    ((2 * n) - 1);
  Format.printf "%a@." Metrics.pp (Metrics.of_runtime rt)

(* ------------------------------------------------------------------ *)
(* msgrename subcommand (ABDPR, message passing)                       *)
(* ------------------------------------------------------------------ *)

let run_msgrename n f crashed seed =
  let module Mnet = Exsel_msgnet.Mnet in
  let module Abdpr = Exsel_msgnet.Abdpr_renaming in
  let net = Abdpr.make_net ~n in
  let originals = List.init n (fun i -> (i, 1000 + (13 * i))) in
  let crash_after = List.init crashed (fun i -> (i, 20 + (15 * i))) in
  let decided =
    Abdpr.run ~net ~f ~originals ~rng:(Rng.create ~seed) ~crash_after ()
  in
  Printf.printf "ABDPR renaming (message passing): n=%d f=%d crashed=%d\n" n f crashed;
  Printf.printf "original  new-name\n";
  List.iter (fun (o, nm) -> Printf.printf "%8d  %d\n" o nm) decided;
  Printf.printf "decided: %d/%d  bound M=(f+1)n=%d  max msgs/proc=%d\n"
    (List.length decided) n
    (Abdpr.name_bound ~n ~f)
    (List.fold_left (fun a p -> max a (Mnet.sent p)) 0 (Mnet.procs net))

(* ------------------------------------------------------------------ *)
(* explore subcommand (model checking)                                 *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 invariant holds, 1 violation found, 2 usage error,
   3 exploration truncated at --max-paths before finishing. *)
let run_explore target contenders crashes reduce do_shrink max_paths jobs
    trace_file chrome_file json_file metrics_out events_file progress
    us_per_commit =
  let open Exsel_sim in
  let adapter =
    match Conf_adapter.find target with
    | Some a -> a
    | None ->
        usage "unknown target %S; valid ids: %s" target
          (String.concat " " (Conf_adapter.ids ()))
  in
  check_at_least_two ("--contenders", contenders);
  check_name_space ~flag:"--contenders" adapter contenders;
  if crashes < 0 then usage "--crashes must be non-negative (got %d)" crashes;
  if reduce && crashes > 0 then usage "--reduce (sleep sets) requires --crashes 0";
  let reduction = if reduce then `Sleep_sets else `None in
  let choice_str = Format.asprintf "%a" Explore.pp_choice in
  let stats_json (s : Explore.stats) =
    Json.Obj
      [
        ("max_depth", Json.Int s.Explore.max_depth);
        ("replays", Json.Int s.Explore.replays);
        ("sleep_prunes", Json.Int s.Explore.sleep_prunes);
        ("hash_hits", Json.Int s.Explore.hash_hits);
        ("hash_misses", Json.Int s.Explore.hash_misses);
        ( "depth_histogram",
          Json.List
            (List.map
               (fun (d, c) -> Json.List [ Json.Int d; Json.Int c ])
               s.Explore.depth_histogram) );
      ]
  in
  let jobs = resolve_jobs jobs in
  check_us_per_commit us_per_commit;
  let metrics_oc = Option.map open_out_or_exit2 metrics_out in
  let events_oc = Option.map open_out_or_exit2 events_file in
  check_outputs [ trace_file; chrome_file; json_file ];
  let em = make_emitter ~events_oc ~progress in
  (* the adapter's instance and claim check, as a conformance cell at
     seed 1 with the exact steps budget builds them *)
  let init, check =
    Runner.explorable
      (adapter.Conf_adapter.make ~seed:1 ~k:contenders ~steps_multiple:1.0)
  in
  emit em
    (Json.Obj
       [
         ("schema", Json.String "exsel-events/1");
         ("event", Json.String "start");
         ("kind", Json.String "explore");
         ("target", Json.String target);
         ("contenders", Json.Int contenders);
         ("max_crashes", Json.Int crashes);
         ("reduction", Json.String (if reduce then "sleep_sets" else "none"));
         ("max_paths", Json.Int max_paths);
       ]);
  (* Live path counts are shard-local increments folded into one atomic
     total: approximate while running under -j N (see Explore.run), so
     the progress lines are the one part of the stream that is not
     jobs-deterministic — the done line reports the exact outcome. *)
  let total_paths = Atomic.make 0 in
  let on_progress d =
    let t = Atomic.fetch_and_add total_paths d + d in
    emit em
      (Json.Obj
         [ ("event", Json.String "explore_progress"); ("paths", Json.Int t) ])
  in
  let outcome =
    Explore.run ~max_crashes:crashes ~max_paths ~reduction ~jobs ~on_progress
      ~init ~check ()
  in
  Printf.printf "model-checked %s with %d contenders (crashes<=%d, reduction=%b)\n"
    target contenders crashes reduce;
  Printf.printf "paths: %d  decisions: %d  truncated: %b\n" outcome.Explore.paths
    outcome.Explore.states outcome.Explore.truncated;
  let st = outcome.Explore.stats in
  Printf.printf
    "effort: max-depth %d  replays %d  sleep-prunes %d  hash hits/misses %d/%d\n"
    st.Explore.max_depth st.Explore.replays st.Explore.sleep_prunes
    st.Explore.hash_hits st.Explore.hash_misses;
  let failure_json, exit_code =
    match outcome.Explore.failure with
    | None ->
        if outcome.Explore.truncated then begin
          Printf.printf
            "no violation in the first %d schedules (exploration truncated)\n"
            outcome.Explore.paths;
          (Json.Null, 3)
        end
        else begin
          Printf.printf "invariant holds on every explored schedule\n";
          (Json.Null, 0)
        end
    | Some (msg, sched) ->
        Printf.printf "VIOLATION: %s\n" msg;
        Printf.printf "schedule (%d choices):\n" (List.length sched);
        List.iter (fun c -> Printf.printf "  %s\n" (choice_str c)) sched;
        let final_sched, shrunk =
          if do_shrink then begin
            let s = Explore.shrink ~init ~check sched in
            Printf.printf "shrunk to %d choices:\n" (List.length s);
            List.iter (fun c -> Printf.printf "  %s\n" (choice_str c)) s;
            (s, true)
          end
          else (sched, false)
        in
        (* the shrunk schedule needs a fresh trace capture; the original
           schedule's trace rode along in the outcome *)
        let events =
          if shrunk then begin
            let _ctx, rt = init () in
            let tr = Trace.attach rt in
            Explore.replay rt final_sched;
            Trace.events tr
          end
          else outcome.Explore.failure_trace
        in
        let label = Printf.sprintf "%s x%d: %s" target contenders msg in
        (match trace_file with
        | Some path ->
            Trace_export.write_file path (Trace_export.to_json ~label events);
            Printf.printf "wrote %s\n" path
        | None -> ());
        (match chrome_file with
        | Some path ->
            Trace_export.write_file path
              (Trace_export.chrome ~us_per_commit events);
            Printf.printf "wrote %s (open at ui.perfetto.dev)\n" path
        | None -> ());
        ( Json.Obj
            [
              ("message", Json.String msg);
              ("original_length", Json.Int (List.length sched));
              ("shrunk", Json.Bool shrunk);
              ( "schedule",
                Json.List (List.map (fun c -> Json.String (choice_str c)) final_sched)
              );
              ("trace", Trace_export.to_json ~label events);
            ],
          1 )
  in
  (match json_file with
  | Some path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "exsel-explore/1");
            ("target", Json.String target);
            ("contenders", Json.Int contenders);
            ("max_crashes", Json.Int crashes);
            ( "reduction",
              Json.String (if reduce then "sleep_sets" else "none") );
            ("paths", Json.Int outcome.Explore.paths);
            ("states", Json.Int outcome.Explore.states);
            ("truncated", Json.Bool outcome.Explore.truncated);
            ("stats", stats_json st);
            ("failure", failure_json);
          ]
      in
      Trace_export.write_file path doc;
      Printf.printf "wrote %s\n" path
  | None -> ());
  (* Explorer effort counters as a registry: prune rates and the path
     depth distribution (rebuilt from the exact depth histogram, so the
     exposition is jobs-deterministic even though progress lines are
     not). *)
  let reg = Obs_metrics.create () in
  let labels = [ ("target", target) ] in
  let count name v = Obs_metrics.inc (Obs_metrics.counter reg name ~labels) v in
  count "exsel_explore_paths" outcome.Explore.paths;
  count "exsel_explore_states" outcome.Explore.states;
  count "exsel_explore_replays" st.Explore.replays;
  count "exsel_explore_sleep_prunes" st.Explore.sleep_prunes;
  count "exsel_explore_hash_hits" st.Explore.hash_hits;
  count "exsel_explore_hash_misses" st.Explore.hash_misses;
  Obs_metrics.set_gauge
    (Obs_metrics.gauge reg "exsel_explore_max_depth" ~labels)
    st.Explore.max_depth;
  Obs_metrics.set_gauge
    (Obs_metrics.gauge reg "exsel_explore_truncated" ~labels)
    (if outcome.Explore.truncated then 1 else 0);
  let depth_h = Obs_metrics.histogram reg "exsel_explore_path_depth" ~labels in
  List.iter
    (fun (d, c) ->
      for _ = 1 to c do
        Obs_metrics.observe depth_h d
      done)
    st.Explore.depth_histogram;
  emit em
    (Json.Obj
       [
         ("event", Json.String "done");
         ("paths", Json.Int outcome.Explore.paths);
         ("states", Json.Int outcome.Explore.states);
         ("truncated", Json.Bool outcome.Explore.truncated);
         ("violation", Json.Bool (outcome.Explore.failure <> None));
         ("metrics", Obs_metrics.summary_json reg);
       ]);
  Option.iter close_out events_oc;
  (match (metrics_oc, metrics_out) with
  | Some oc, Some path -> write_openmetrics oc path reg
  | _ -> ());
  if exit_code <> 0 then exit exit_code

(* ------------------------------------------------------------------ *)
(* experiments subcommand                                              *)
(* ------------------------------------------------------------------ *)

let run_experiments only json =
  let named =
    match only with
    | None -> E.all_named
    | Some id -> (
        let id = String.uppercase_ascii id in
        match List.filter (fun (i, _) -> i = id) E.all_named with
        | [] ->
            usage "unknown experiment id %S; valid ids: %s" id
              (String.concat " " (List.map fst E.all_named))
        | sel -> sel)
  in
  check_outputs [ json ];
  match json with
  | Some path ->
      let entries = Report.observe named in
      List.iter (fun e -> Table.print e.Report.table) entries;
      Report.write_file path entries;
      Printf.printf "wrote %s (%d experiments)\n" path (List.length entries)
  | None -> List.iter (fun (_, f) -> Table.print (f ())) named

(* ------------------------------------------------------------------ *)
(* Campaigns: conformance, service, workload                           *)
(* ------------------------------------------------------------------ *)

module Conf_regime = Exsel_conformance.Regime
module Campaign = Exsel_conformance.Campaign
module Service_core = Exsel_service.Core
module Drive = Exsel_service.Drive
module Churn = Exsel_service.Churn
module Workload = Exsel_service.Workload

(* The flags every campaign subcommand shares. *)
type campaign = {
  jobs : int;
  seeds : string;
  json : string option;
  chrome : string option;
  metrics_out : string option;
  events : string option;
  progress : bool;
  us_per_commit : int;
}

let campaign_seeds c =
  match Campaign.seeds_of_string c.seeds with
  | Ok seeds -> seeds
  | Error msg -> usage "--seeds %s: %s" c.seeds msg

let ids_or_exit2 ~what ~find ~ids ~all = function
  | [] -> all
  | l ->
      List.map
        (fun id ->
          match find id with
          | Some x -> x
          | None ->
              usage "unknown %s %S; valid ids: %s" what id
                (String.concat " " (ids ())))
        l

(* The one path that runs a campaign.  -j, the time scale and every
   output path are checked before the first cell; the metrics and event
   streams are opened then, the report, exposition and trace written at
   the end. *)
let run_campaign c ~start ~run ~event ~done_ ~pp ~to_json ~metrics ~violations
    ~chrome =
  let jobs = resolve_jobs c.jobs in
  check_us_per_commit c.us_per_commit;
  check_outputs [ c.json; c.chrome ];
  let metrics_oc = Option.map open_out_or_exit2 c.metrics_out in
  let events_oc = Option.map open_out_or_exit2 c.events in
  let em = make_emitter ~events_oc ~progress:c.progress in
  emit em start;
  let report = run ~jobs ~on_event:(fun ev -> emit em (event ev)) in
  emit em (done_ report);
  Option.iter close_out events_oc;
  Format.printf "%a" pp report;
  (match (metrics_oc, c.metrics_out) with
  | Some oc, Some path -> write_openmetrics oc path (metrics report)
  | _ -> ());
  Option.iter
    (fun path ->
      Trace_export.write_file path (to_json report);
      Printf.printf "wrote %s\n" path)
    c.json;
  Option.iter (chrome report) c.chrome;
  if violations report > 0 then exit 1

let run_conformance algos regimes adversary k steps_multiple max_commits
    no_shrink c =
  let algos =
    ids_or_exit2 ~what:"algorithm" ~find:Conf_adapter.find ~ids:Conf_adapter.ids
      ~all:Conf_adapter.honest algos
  in
  let named_regimes =
    ids_or_exit2 ~what:"regime" ~find:Conf_regime.find ~ids:Conf_regime.ids
      ~all:[] regimes
  in
  let dsl_regimes =
    List.map
      (fun expr ->
        match Conf_regime.of_string expr with
        | Ok r -> r
        | Error msg -> usage "--adversary %S: %s" expr msg)
      adversary
  in
  let regimes =
    match named_regimes @ dsl_regimes with
    | [] -> Conf_regime.all
    | rs -> rs
  in
  let seeds = campaign_seeds c in
  check_at_least_two ("--k", k);
  List.iter (fun a -> check_name_space ~flag:"--k" a k) algos;
  let cfg =
    {
      Campaign.algos;
      regimes;
      seeds;
      k;
      steps_multiple;
      max_commits;
      shrink = not no_shrink;
    }
  in
  run_campaign c ~start:(Campaign.start_event cfg)
    ~run:(fun ~jobs ~on_event -> Campaign.run ~jobs ~on_event cfg)
    ~event:Campaign.event_json ~done_:Campaign.done_event
    ~pp:Campaign.pp_summary ~to_json:Campaign.to_json
    ~metrics:(fun r -> r.Campaign.r_metrics)
    ~violations:(fun r -> r.Campaign.r_violations)
    ~chrome:(fun report path ->
      let first_trace =
        List.find_map
          (fun c ->
            match c.Campaign.c_violation with
            | Some v when v.Campaign.v_trace <> [] -> Some v.Campaign.v_trace
            | _ -> None)
          report.Campaign.r_cells
      in
      match first_trace with
      | Some events ->
          Trace_export.write_file path
            (Trace_export.chrome ~us_per_commit:c.us_per_commit events);
          Printf.printf "wrote %s\n" path
      | None -> Printf.printf "no violation trace to export to %s\n" path)

(* The service shape both load subcommands share, checked before their
   own flags: backend and --domains, --chrome on the simulator only, the
   entry renamer, the seeds and the adversary term. *)
let service_config backend domains shards cap rounds entry max_commits
    adversary c =
  let backend =
    match backend with
    | "sim" ->
        if domains <> None then usage "--domains only applies to --backend native";
        Drive.Sim
    | "native" -> Drive.Native { domains = Option.value domains ~default:4 }
    | other -> usage "unknown backend %S; valid: sim, native" other
  in
  if backend <> Drive.Sim && c.chrome <> None then
    usage "--chrome only applies to --backend sim (traces are commit-clock)";
  let entry =
    match Service_core.entry_algo_of_string entry with
    | Some e -> e
    | None -> usage "unknown entry renamer %S; valid: efficient, adaptive" entry
  in
  let seeds = campaign_seeds c in
  let adversary =
    Option.map
      (fun expr ->
        match Exsel_adversary.Dsl.parse expr with
        | Ok e -> e
        | Error msg -> usage "--adversary %S: %s" expr msg)
      adversary
  in
  ({ Drive.shards; cap; rounds; entry; seeds; backend; max_commits; adversary }, c)

(* The run path both load subcommands share: validate, run the cells and,
   on --chrome, re-run the showcase cell with traces attached and export
   its busiest shard's commit-clock track. *)
let run_load c ~validate ~start ~run ~event ~pp ~to_json ~showcase =
  (match validate with
  | Ok () -> ()
  | Error msg -> usage "%s" msg);
  run_campaign c ~start ~run ~event ~done_:Drive.done_event ~pp ~to_json
    ~metrics:(fun r -> r.Drive.r_metrics)
    ~violations:(fun r -> r.Drive.r_violations)
    ~chrome:(fun _ path ->
      let what, traces = showcase () in
      let shard, _, events =
        List.fold_left
          (fun ((_, best, _) as acc) ((_, commits, _) as cand) ->
            if commits > best then cand else acc)
          (List.hd traces) (List.tl traces)
      in
      Trace_export.write_file path
        (Trace_export.chrome ~us_per_commit:c.us_per_commit events);
      Printf.printf "wrote %s (shard %d, %s)\n" path shard what)

let run_service (service, c) sessions churn =
  let regimes =
    ids_or_exit2 ~what:"churn regime" ~find:Churn.regime_of_string
      ~ids:Churn.regime_ids ~all:Churn.all_regimes churn
  in
  let cfg = { Churn.service; sessions; regimes } in
  run_load c ~validate:(Churn.validate cfg) ~start:(Churn.start_event cfg)
    ~run:(fun ~jobs ~on_event -> Churn.run ~jobs ~on_event cfg)
    ~event:Churn.event_json ~pp:Churn.pp_summary ~to_json:Churn.to_json
    ~showcase:(fun () ->
      (* the skew is what the Perfetto view is for *)
      let regime =
        if List.mem Churn.Hot_shard regimes then Churn.Hot_shard
        else List.hd regimes
      in
      ( Churn.regime_id regime ^ " regime",
        Churn.shard_traces cfg regime ~seed:(List.hd service.seeds) ))

let run_workload (service, c) rate burst_every hold patterns =
  let patterns =
    ids_or_exit2 ~what:"arrival pattern" ~find:Workload.pattern_of_string
      ~ids:Workload.pattern_ids ~all:Workload.all_patterns patterns
  in
  let cfg = { Workload.service; rate; burst_every; hold; patterns } in
  run_load c ~validate:(Workload.validate cfg) ~start:(Workload.start_event cfg)
    ~run:(fun ~jobs ~on_event -> Workload.run ~jobs ~on_event cfg)
    ~event:Workload.event_json ~pp:Workload.pp_summary ~to_json:Workload.to_json
    ~showcase:(fun () ->
      (* the clumped arrivals are what the Perfetto view is for *)
      let pattern =
        if List.mem Workload.Bursty patterns then Workload.Bursty
        else List.hd patterns
      in
      ( Workload.pattern_id pattern ^ " pattern",
        Workload.shard_traces cfg pattern ~seed:(List.hd service.seeds) ))

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are reproducible).")

let k_t = Arg.(value & opt int 8 & info [ "k"; "contention" ] ~docv:"K" ~doc:"Contention bound known to the code.")
let n_t = Arg.(value & opt int 16 & info [ "n"; "total" ] ~docv:"N" ~doc:"Total number of processes.")

let n_names_t =
  Arg.(value & opt int 1024 & info [ "names" ] ~docv:"NAMES" ~doc:"Size of the original name space.")

let procs_t =
  Arg.(value & opt int 8 & info [ "procs" ] ~docv:"P" ~doc:"Number of contending processes to run.")

let crash_t =
  let crash_conv =
    let parse s =
      match List.map int_of_string_opt (String.split_on_char '@' s) with
      | [ Some p; Some c ] when p >= 0 && c >= 0 -> Ok (c, p)
      | _ -> Error (`Msg "expected PID@COMMIT, two non-negative integers")
    in
    Arg.conv (parse, fun ppf (c, p) -> Format.fprintf ppf "%d@%d" p c)
  in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@COMMIT" ~doc:"Crash process PID just before global commit COMMIT (repeatable).")

let algo_t =
  Arg.(
    value & opt string "adaptive"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "Algorithm: ma, snapshot, majority, basic, polylog, efficient, \
           almost-adaptive, adaptive, chain.  With rename --backend \
           native: any conformance adapter id (compete, ma, attiya, \
           majority, basic, polylog, efficient, almost-adaptive, adaptive, \
           buggy-ma); moir-anderson and snapshot stand for ma and attiya.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the per-register contention profile after the run (on the \
           simulator also the per-phase span aggregates; on --backend \
           native the hot-register ranking and per-domain busy/task \
           stats).")

let json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the run's metrics, contention profile and span trees to $(docv).")

let chrome_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file to $(docv), loadable at \
           ui.perfetto.dev: on the simulator one track per process (phase \
           spans, value-carrying commit instants, commit clock); on \
           --backend native one track per domain (wall-clock rename spans \
           plus the engine's spawn/join overheads).")

let us_per_commit_t =
  Arg.(
    value & opt int 1000
    & info [ "us-per-commit" ] ~docv:"US"
        ~doc:
          "Chrome-trace time scale: microseconds per simulator commit \
           (default 1000).  Use a smaller scale to keep dense campaign \
           traces readable in Perfetto.")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry as an OpenMetrics/Prometheus \
           text exposition to $(docv) (an unwritable path exits 2 before \
           the run starts).")

let events_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Stream live exsel-events/1 progress events to $(docv) as NDJSON, \
           flushed per event (an unwritable path exits 2 before the run \
           starts).")

let progress_t =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Mirror the exsel-events/1 NDJSON progress stream to stderr.")

let backend_t =
  Arg.(
    value & opt string "sim"
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Substrate to run on: $(b,sim) (the deterministic simulator; \
           default) or $(b,native) (real Atomic.t registers on OCaml 5 \
           domains; runs any conformance adapter's own instance, ids and \
           seeds, sizes it from --procs, and checks the adapter's claims \
           post hoc on the decision log).")

let domains_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "With --backend native: real domains in the worker pool (default \
           4); logical processes beyond $(docv) are work-queued.")

let warmup_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "warmup" ] ~docv:"K"
        ~doc:
          "With --backend native: run $(docv) complete throwaway campaigns \
           before the measured one (pool cold-start stays out of the \
           reported latencies; the warmup cost is printed separately).")

let rename_trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "With --backend native: write the engine's wall-clock flight \
           record as an exsel-native-trace/1 document to $(docv).")

let rename_cmd =
  let doc = "run a renaming algorithm and print the assignment" in
  Cmd.v (Cmd.info "rename" ~doc)
    Term.(
      const run_rename $ backend_t $ domains_t $ warmup_t $ algo_t $ k_t $ n_t
      $ n_names_t $ procs_t $ seed_t $ crash_t $ profile_t $ json_t
      $ rename_trace_t $ chrome_t $ metrics_out_t $ us_per_commit_t)

let deposit_cmd =
  let doc = "run a repository (Selfish- or Altruistic-Deposit) with crashes" in
  let altruistic =
    Arg.(value & flag & info [ "altruistic" ] ~doc:"Use the wait-free Altruistic-Deposit.")
  in
  let per = Arg.(value & opt int 5 & info [ "per" ] ~docv:"D" ~doc:"Deposits per process.") in
  let crashed =
    Arg.(value & opt int 1 & info [ "crashed" ] ~docv:"C" ~doc:"Processes to crash mid-run.")
  in
  Cmd.v (Cmd.info "deposit" ~doc)
    Term.(const run_deposit $ altruistic $ n_t $ per $ crashed $ seed_t)

let naming_cmd =
  let doc = "acquire unbounded names exclusively (Theorem 10)" in
  let per = Arg.(value & opt int 5 & info [ "per" ] ~docv:"D" ~doc:"Names per process.") in
  Cmd.v (Cmd.info "naming" ~doc) Term.(const run_naming $ n_t $ per $ seed_t)

let adversary_cmd =
  let doc = "drive the lower-bound adversary (Theorem 6) against an algorithm" in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(const run_adversary $ algo_t $ k_t $ n_names_t $ seed_t)

let lease_cmd =
  let doc = "run long-lived renaming (acquire/release churn)" in
  let rounds = Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Acquire/release rounds per process.") in
  Cmd.v (Cmd.info "lease" ~doc) Term.(const run_lease $ n_t $ rounds $ seed_t)

let msgrename_cmd =
  let doc = "run the ABDPR message-passing renaming (reference [14])" in
  let f_t = Arg.(value & opt int 1 & info [ "f"; "faults" ] ~docv:"F" ~doc:"Crash bound, 2f < n.") in
  let crashed = Arg.(value & opt int 0 & info [ "crashed" ] ~docv:"C" ~doc:"Processes to crash mid-run.") in
  Cmd.v (Cmd.info "msgrename" ~doc) Term.(const run_msgrename $ n_t $ f_t $ crashed $ seed_t)

let explore_cmd =
  let doc = "model-check an algorithm's claims over every schedule of a small instance" in
  let target = Arg.(value & pos 0 string "compete" & info [] ~docv:"TARGET" ~doc:"A conformance adapter id: compete, ma, attiya, majority, basic, polylog, efficient, almost-adaptive, adaptive, or buggy-ma (the negative control, which violates exclusiveness).  The instance is the adapter's at seed 1, checked against its claims with the exact steps budget.") in
  let contenders = Arg.(value & opt int 2 & info [ "contenders" ] ~docv:"K" ~doc:"Concurrent contenders (at least 2).") in
  let crashes = Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"C" ~doc:"Crash decisions allowed per schedule.") in
  let reduce = Arg.(value & flag & info [ "reduce" ] ~doc:"Enable sleep-set partial-order reduction.") in
  let shrink = Arg.(value & flag & info [ "shrink" ] ~doc:"Minimize the counterexample schedule (ddmin) before reporting it.") in
  let max_paths = Arg.(value & opt int 1_000_000 & info [ "max-paths" ] ~docv:"P" ~doc:"Stop after checking $(docv) schedules (exit 3 when hit).") in
  let jobs = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Shard top-level schedule branches across $(docv) domains (0 = one per core); the outcome is identical to -j 1.") in
  let trace = Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"On violation, write the counterexample's value-carrying trace as an exsel-trace/1 document to $(docv).") in
  let chrome = Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc:"On violation, write the counterexample as Chrome trace-event JSON to $(docv) (open at ui.perfetto.dev).") in
  let json = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the exploration outcome (stats, failure, trace) as one exsel-explore/1 document to $(docv).") in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run_explore $ target $ contenders $ crashes $ reduce $ shrink $ max_paths
      $ jobs $ trace $ chrome $ json $ metrics_out_t $ events_t $ progress_t
      $ us_per_commit_t)

(* The campaign flags shared by conformance, service and workload. *)
let campaign_t ~matrix ~schema ~chrome_doc =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            ("Shard the " ^ matrix
           ^ " matrix across $(docv) domains (0 = one per core).  The report \
              is byte-identical to -j 1."))
  in
  let seeds =
    Arg.(
      value & opt string "3"
      & info [ "seeds" ] ~docv:"N|LIST"
          ~doc:
            "Seeds per cell: a count (campaigns run seeds 1..N) or an \
             explicit comma-separated list (e.g. 3,7,11).  Duplicate and \
             negative seeds are rejected.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            ("Write the full report as one " ^ schema ^ " document to $(docv)."))
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE" ~doc:chrome_doc)
  in
  let campaign jobs seeds json chrome metrics_out events progress us_per_commit =
    { jobs; seeds; json; chrome; metrics_out; events; progress; us_per_commit }
  in
  Term.(
    const campaign $ jobs $ seeds $ json $ chrome $ metrics_out_t $ events_t
    $ progress_t $ us_per_commit_t)

let conformance_cmd =
  let doc =
    "run crash-fault conformance campaigns checking every paper claim"
  in
  let algos =
    Arg.(
      value & opt_all string []
      & info [ "algo" ] ~docv:"ID"
          ~doc:
            "Algorithm adapter to campaign (repeatable; default: all honest \
             adapters).  Ids: compete, ma, attiya, majority, basic, polylog, \
             efficient, almost-adaptive, adaptive, buggy-ma.")
  in
  let regimes =
    Arg.(
      value & opt_all string []
      & info [ "regime" ] ~docv:"ID"
          ~doc:
            "Fault regime to campaign under (repeatable; default: all).  Ids: \
             random, crash-half, crash-on-write, freeze, lockstep.")
  in
  let k =
    Arg.(
      value & opt int 5
      & info [ "k"; "contention" ] ~docv:"K" ~doc:"Contenders per instance.")
  in
  let steps_multiple =
    Arg.(
      value & opt float 1.0
      & info [ "steps-multiple" ] ~docv:"X"
          ~doc:
            "Tolerance on each adapter's local-steps budget (1.0 = exactly as \
             claimed).")
  in
  let max_commits =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-commits" ] ~docv:"C"
          ~doc:"Per-run liveness budget (exhausting it is a violation).")
  in
  let adversary =
    Arg.(
      value & opt_all string []
      & info [ "adversary" ] ~docv:"EXPR"
          ~doc:
            "Campaign under an adversary DSL term (repeatable), e.g. \
             $(b,crash(half, budget(1, uniform))) or $(b,phase(40, lockstep) \
             >> freeze([0,1], 10..60, uniform)).  Terms: uniform, lockstep, \
             first, halt, crash(V, E), crashw(V, E), freeze(V, E), freeze(V, \
             LO..HI, E), cap(N, E), budget(B, E), phase(N, E) >> E'.  \
             Victims V: half, or an explicit pid list [0,2,5].  Without \
             --regime, only the given terms run.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Skip ddmin minimization of violating schedules.")
  in
  Cmd.v (Cmd.info "conformance" ~doc)
    Term.(
      const run_conformance $ algos $ regimes $ adversary $ k $ steps_multiple
      $ max_commits $ no_shrink
      $ campaign_t ~matrix:"algo\xc3\x97regime" ~schema:"exsel-conformance/1"
          ~chrome_doc:
            "Write the first violation's value-carrying trace as Chrome \
             trace-event JSON to $(docv) (open at ui.perfetto.dev).")

(* The service shape shared by service and workload. *)
let service_t ~load ~schema ~rounds =
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Independent service shards; the global namespace is partitioned \
             statically, shard $(i,i) owning names [i\xc2\xb7stride, \
             (i+1)\xc2\xb7stride).")
  in
  let cap =
    Arg.(
      value & opt int 4
      & info [ "cap" ] ~docv:"K"
          ~doc:
            "Per-shard session capacity: admission control keeps occupancy \
             (live + crash-pinned) at most $(docv), bounding acquired local \
             names below 2\xc2\xb7$(docv) \xe2\x88\x92 1; arrivals beyond \
             the service's room are rejected.")
  in
  let rounds =
    Arg.(
      value & opt int rounds
      & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per campaign cell.")
  in
  let entry =
    Arg.(
      value & opt string "efficient"
      & info [ "entry" ] ~docv:"ALGO"
          ~doc:
            "One-shot entry renamer assigning arriving sessions their \
             component slot: $(b,efficient) or $(b,adaptive).")
  in
  let max_commits =
    Arg.(
      value & opt int 200_000
      & info [ "max-commits" ] ~docv:"C"
          ~doc:
            "Per-round liveness budget on the simulator (exhausting it is a \
             violation).")
  in
  let adversary =
    Arg.(
      value
      & opt (some string) None
      & info [ "adversary" ] ~docv:"EXPR"
          ~doc:
            "Replace the uniform within-shard simulator scheduler with a \
             crash-free adversary DSL term, e.g. $(b,cap(2, lockstep)) or \
             $(b,budget(1, uniform)) (sim backend only; crash decisions are \
             rejected — the load planner owns the session ledger).")
  in
  Term.(
    const service_config $ backend_t $ domains_t $ shards $ cap $ rounds $ entry
    $ max_commits $ adversary
    $ campaign_t ~matrix:(load ^ "\xc3\x97seed") ~schema
        ~chrome_doc:
          "Re-run one cell with traces attached and write its busiest \
           shard's commit-clock track as Chrome trace-event JSON to $(docv) \
           (open at ui.perfetto.dev; sim backend only).")

let service_cmd =
  let doc =
    "run the long-lived renaming service through seeded churn campaigns"
  in
  let sessions =
    Arg.(
      value & opt int 6
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Service-wide target of concurrent sessions.")
  in
  let churn =
    Arg.(
      value & opt_all string []
      & info [ "churn" ] ~docv:"ID"
          ~doc:
            "Churn regime to campaign under (repeatable; default: all).  \
             Ids: waves, crash-rejoin, hot-shard.")
  in
  Cmd.v (Cmd.info "service" ~doc)
    Term.(
      const run_service
      $ service_t ~load:"regime" ~schema:"exsel-service/1" ~rounds:6
      $ sessions $ churn)

let workload_cmd =
  let doc =
    "drive open-loop seeded traffic at the service and measure latency tails"
  in
  let rate =
    Arg.(
      value & opt int 3
      & info [ "rate" ] ~docv:"L"
          ~doc:"Mean arrivals per round (every pattern has this long-run mean).")
  in
  let burst_every =
    Arg.(
      value & opt int 4
      & info [ "burst-every" ] ~docv:"B"
          ~doc:
            "Bursty pattern: a burst of rate\xc2\xb7$(docv) arrivals every \
             $(docv) rounds, nothing in between.")
  in
  let hold =
    Arg.(
      value & opt int 2
      & info [ "hold" ] ~docv:"H"
          ~doc:"Mean rounds a session holds its name before releasing.")
  in
  let patterns =
    Arg.(
      value & opt_all string []
      & info [ "pattern" ] ~docv:"ID"
          ~doc:
            "Arrival pattern to campaign under (repeatable; default: all).  \
             Ids: poisson, bursty, steady.")
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      const run_workload
      $ service_t ~load:"pattern" ~schema:"exsel-workload/1" ~rounds:8
      $ rate $ burst_every $ hold $ patterns)

let experiments_cmd =
  let doc = "regenerate the paper-reproduction tables and figures" in
  let only =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (T1..T9, F1, F2, A1..A3, X1..X3).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write every selected table plus per-run observations as one \
             exsel-bench/1 document to $(docv).")
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run_experiments $ only $ json)

let () =
  let doc = "asynchronous exclusive selection (Chlebus & Kowalski, PODC 2008)" in
  let info = Cmd.info "exsel" ~version:"1.0.0" ~doc in
  (* a malformed command line is a usage error, exit 2 (README.md) *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [
              rename_cmd;
              deposit_cmd;
              naming_cmd;
              adversary_cmd;
              lease_cmd;
              msgrename_cmd;
              explore_cmd;
              conformance_cmd;
              service_cmd;
              workload_cmd;
              experiments_cmd;
            ])
     with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
