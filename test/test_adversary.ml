(* The adversary DSL: legacy-regime schedule equivalence (the PR's
   byte-identity claim at the unit level — the five historic closures
   are hand-copied here and compared draw-for-draw against their DSL
   derived forms), parser round-trips, combinator semantics (cap,
   budget, phase sequencing, freeze windows), the regime edge cases the
   bugfixes cover, the versioned RNG, and the open-loop workload. *)

module Runtime = Exsel_sim.Runtime
module Memory = Exsel_sim.Memory
module Register = Exsel_sim.Register
module Rng = Exsel_sim.Rng
module Explore = Exsel_sim.Explore
module Freeze = Exsel_lowerbound.Freeze
module Dsl = Exsel_adversary.Dsl
module Runner = Exsel_conformance.Runner
module Regime = Exsel_conformance.Regime
module Workload = Exsel_service.Workload
module Drive = Exsel_service.Drive
module Validate = Exsel_testkit.Validate

(* ------------------------------------------------------------------ *)
(* A deterministic register workload to schedule                       *)
(* ------------------------------------------------------------------ *)

(* k processes, each incrementing a rotating window of k shared
   registers [ops] times: enough writes for crashw victims, enough
   commits (k * 2 * ops) for the crash-plan windows to fire. *)
let make_spec ~k ~ops () =
  {
    Runner.algo = "grid";
    claim = "none";
    init =
      (fun () ->
        let mem = Memory.create () in
        let rt = Runtime.create mem in
        let regs =
          Array.init k (fun i ->
              Register.create mem ~name:(Printf.sprintf "r%d" i) 0)
        in
        for i = 0 to k - 1 do
          ignore
            (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
                 for j = 1 to ops do
                   let r = regs.((i + j) mod k) in
                   Runtime.write r (Runtime.read r + 1)
                 done))
        done;
        { Runner.runtime = rt; check = (fun () -> Ok ()) });
  }

let choice_str = function
  | Explore.Step p -> "S" ^ string_of_int p
  | Explore.Crash p -> "X" ^ string_of_int p

(* ------------------------------------------------------------------ *)
(* The five historic regime closures, copied verbatim from the         *)
(* pre-DSL lib/conformance/regime.ml (including its two scheduling     *)
(* bugs: physical-equality victim removal and crash draws for          *)
(* already-finished victims — both schedule-invisible, which is what   *)
(* these tests prove)                                                  *)
(* ------------------------------------------------------------------ *)

let random_commit rng rt =
  let n = Runtime.num_runnable rt in
  if n = 0 then None
  else Some (Runner.Commit (Runtime.nth_runnable rt (Rng.int rng n)))

let pick_victims ~seed ~k =
  let a = Array.init k Fun.id in
  Rng.shuffle (Rng.create ~seed:(seed lxor 0x9e3779b9)) a;
  Array.to_list (Array.sub a 0 ((k + 1) / 2))

let old_random ~seed ~k:_ =
  let rng = Rng.create ~seed in
  fun rt -> random_commit rng rt

let old_crash_half ~seed ~k =
  let rng = Rng.create ~seed in
  let plan_rng = Rng.create ~seed:(seed + 1) in
  let remaining =
    ref
      (List.mapi
         (fun i pid -> (pid, Rng.int plan_rng (4 * k * (i + 1))))
         (pick_victims ~seed ~k))
  in
  fun rt ->
    match
      List.find_opt (fun (_, at) -> Runtime.commits rt >= at) !remaining
    with
    | Some ((pid, _) as entry) ->
        remaining := List.filter (fun e -> e != entry) !remaining;
        Some (Runner.Crash (Runtime.proc_by_pid rt pid))
    | None -> random_commit rng rt

let old_crash_on_write ~seed ~k =
  let rng = Rng.create ~seed in
  let remaining = ref (pick_victims ~seed ~k) in
  let write_pending p =
    Runtime.status p = Runtime.Runnable
    &&
    match Runtime.pending p with
    | Some (Runtime.Write _) -> true
    | Some (Runtime.Read _) | None -> false
  in
  fun rt ->
    match
      List.find_opt
        (fun pid -> write_pending (Runtime.proc_by_pid rt pid))
        !remaining
    with
    | Some pid ->
        remaining := List.filter (fun x -> x <> pid) !remaining;
        Some (Runner.Crash (Runtime.proc_by_pid rt pid))
    | None -> random_commit rng rt

let old_freeze ~seed ~k =
  let rng = Rng.create ~seed in
  let victims = pick_victims ~seed:(seed + 2) ~k in
  let freeze_at = 4 + (k / 2) in
  let policy =
    Freeze.freeze_window ~rng ~victims ~freeze_at
      ~thaw_at:(freeze_at + (32 * k))
  in
  fun rt ->
    match policy rt with Some p -> Some (Runner.Commit p) | None -> None

let old_lockstep ~seed ~k:_ =
  let rng = Rng.create ~seed in
  fun rt ->
    if Runtime.num_runnable rt = 0 then None
    else begin
      let min_steps = ref max_int in
      Runtime.iter_runnable rt (fun p ->
          if Runtime.steps p < !min_steps then min_steps := Runtime.steps p);
      let count = ref 0 in
      Runtime.iter_runnable rt (fun p ->
          if Runtime.steps p = !min_steps then incr count);
      let j = Rng.int rng !count in
      let chosen = ref None in
      let i = ref 0 in
      Runtime.iter_runnable rt (fun p ->
          if Runtime.steps p = !min_steps then begin
            if !i = j then chosen := Some p;
            incr i
          end);
      match !chosen with
      | Some p -> Some (Runner.Commit p)
      | None -> None
    end

(* ------------------------------------------------------------------ *)
(* Legacy equivalence: old closure vs DSL regime, schedule for         *)
(* schedule                                                            *)
(* ------------------------------------------------------------------ *)

let regime id =
  match Regime.find id with
  | Some r -> r
  | None -> Alcotest.failf "regime %s missing" id

let check_equiv name old_make id ~k ~ops ~seeds =
  List.iter
    (fun seed ->
      let o_old =
        Runner.drive (make_spec ~k ~ops ()) ~driver:(old_make ~seed ~k)
      in
      let o_new =
        Runner.drive (make_spec ~k ~ops ())
          ~driver:((regime id).Regime.make ~seed ~k)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed=%d schedule" name seed)
        (List.map choice_str o_old.Runner.schedule)
        (List.map choice_str o_new.Runner.schedule);
      Alcotest.(check int)
        (Printf.sprintf "%s seed=%d commits" name seed)
        o_old.Runner.commits o_new.Runner.commits;
      Alcotest.(check int)
        (Printf.sprintf "%s seed=%d crashed" name seed)
        o_old.Runner.crashed o_new.Runner.crashed;
      Alcotest.(check int)
        (Printf.sprintf "%s seed=%d max_steps" name seed)
        o_old.Runner.max_steps o_new.Runner.max_steps)
    seeds

let seeds = [ 1; 2; 3; 7; 11 ]
let test_equiv_random () = check_equiv "random" old_random "random" ~k:5 ~ops:12 ~seeds

let test_equiv_crash_half () =
  check_equiv "crash-half" old_crash_half "crash-half" ~k:5 ~ops:12 ~seeds

let test_equiv_crash_on_write () =
  check_equiv "crash-on-write" old_crash_on_write "crash-on-write" ~k:5
    ~ops:12 ~seeds

let test_equiv_freeze () =
  check_equiv "freeze" old_freeze "freeze" ~k:5 ~ops:12 ~seeds

let test_equiv_lockstep () =
  check_equiv "lockstep" old_lockstep "lockstep" ~k:5 ~ops:12 ~seeds

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let expr = Alcotest.testable (fun ppf e -> Fmt.string ppf (Dsl.to_string e)) ( = )

let test_parse_round_trip () =
  List.iter
    (fun e ->
      match Dsl.parse (Dsl.to_string e) with
      | Ok e' -> Alcotest.check expr (Dsl.to_string e) e e'
      | Error msg -> Alcotest.failf "%s does not re-parse: %s" (Dsl.to_string e) msg)
    [
      Dsl.legacy_random;
      Dsl.legacy_crash_half;
      Dsl.legacy_crash_on_write;
      Dsl.legacy_freeze;
      Dsl.legacy_lockstep;
      Dsl.First;
      Dsl.Halt;
      Dsl.Freeze (Dsl.Pids [ 0; 2; 4 ], Dsl.Window (10, 60), Dsl.Uniform);
      Dsl.Cap (2, Dsl.Lockstep);
      Dsl.Budget (1, Dsl.Uniform);
      Dsl.Seq (40, Dsl.Lockstep, Dsl.Crash_points (Dsl.Half 0, Dsl.Budget (1, Dsl.Uniform)));
      Dsl.Seq (5, Dsl.First, Dsl.Seq (5, Dsl.Lockstep, Dsl.Uniform));
      Dsl.Crash_on_write (Dsl.Pids [ 1 ], Dsl.Cap (3, Dsl.Uniform));
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Dsl.parse s with
      | Ok e -> Alcotest.failf "%S parsed as %s" s (Dsl.to_string e)
      | Error _ -> ())
    [
      "";
      "bogus";
      "crash(half uniform)";
      "uniform >> lockstep";
      "cap(uniform, 2)";
      "crash(half, uniform) extra";
      "freeze([1,], uniform)";
      "phase(3, uniform) >>";
    ]

let test_regime_of_string () =
  (match Regime.of_string "uniform" with
  | Ok r -> Alcotest.(check string) "dsl id" "dsl:uniform" r.Regime.id
  | Error msg -> Alcotest.failf "uniform rejected: %s" msg);
  (match Regime.of_string "cap(2,  lockstep)" with
  | Ok r ->
      Alcotest.(check string) "canonical id" "dsl:cap(2, lockstep)" r.Regime.id
  | Error msg -> Alcotest.failf "cap rejected: %s" msg);
  match Regime.of_string "nonsense(" with
  | Ok _ -> Alcotest.fail "nonsense parsed"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Combinator semantics (driving a runtime directly)                   *)
(* ------------------------------------------------------------------ *)

(* [counts.(i)] register-increments for process i, all on disjoint
   registers unless [shared] names one register everyone hammers *)
let mk_runtime ?shared ~counts () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let reg i =
    match shared with
    | Some r -> r
    | None -> Register.create mem ~name:(Printf.sprintf "r%d" i) 0
  in
  Array.iteri
    (fun i ops ->
      let r = reg i in
      ignore
        (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
             for _ = 1 to ops do
               Runtime.write r 1
             done)))
    counts;
  rt

let drive_dsl rt driver =
  let sched = ref [] in
  let crashes = ref 0 in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 100_000 do
    incr steps;
    match driver rt with
    | Some (Dsl.Commit p) ->
        sched := Runtime.pid p :: !sched;
        Runtime.commit rt p
    | Some (Dsl.Crash p) ->
        incr crashes;
        Runtime.crash rt p
    | None -> continue := false
  done;
  (List.rev !sched, !crashes)

let test_cap_alternates () =
  let rt = mk_runtime ~counts:[| 6; 6 |] () in
  let driver = Dsl.compile (Dsl.Cap (1, Dsl.First)) ~seed:1 ~k:2 in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check (list int))
    "cap(1, first) alternates"
    [ 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1 ]
    sched;
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

let test_cap_relaxes_when_alone () =
  let rt = mk_runtime ~counts:[| 5 |] () in
  let driver = Dsl.compile (Dsl.Cap (1, Dsl.First)) ~seed:1 ~k:1 in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check (list int)) "sole process keeps running" [ 0; 0; 0; 0; 0 ] sched

let test_budget_drains_lowest_pid () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let r = Register.create mem ~name:"hot" 0 in
  for i = 0 to 2 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
           for _ = 1 to 4 do
             Runtime.write r 1
           done))
  done;
  let driver = Dsl.compile (Dsl.Budget (1, Dsl.Uniform)) ~seed:9 ~k:3 in
  let sched, _ = drive_dsl rt driver in
  (* three pending writers on one register with budget 1: the forced
     drain always picks the lowest pid, so the schedule is sorted *)
  Alcotest.(check (list int))
    "forced drains in pid order"
    [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 ]
    sched

let test_budget_slack_is_inner_term () =
  (* a budget no census ever exceeds never forces a drain, so the term
     is draw-for-draw its inner scheduler *)
  let spec = make_spec ~k:4 ~ops:8 in
  let o_plain =
    Runner.drive (spec ()) ~driver:((regime "random").Regime.make ~seed:5 ~k:4)
  in
  let budget =
    match Regime.of_string "budget(64, uniform)" with
    | Ok r -> r
    | Error msg -> Alcotest.failf "budget(64, uniform): %s" msg
  in
  let o_budget =
    Runner.drive (spec ()) ~driver:(budget.Regime.make ~seed:5 ~k:4)
  in
  Alcotest.(check (list string))
    "slack budget = uniform"
    (List.map choice_str o_plain.Runner.schedule)
    (List.map choice_str o_budget.Runner.schedule)

let test_phase_budget_then_halt () =
  let rt = mk_runtime ~counts:[| 4; 4 |] () in
  let driver = Dsl.compile (Dsl.Seq (3, Dsl.First, Dsl.Halt)) ~seed:1 ~k:2 in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check int) "exactly 3 decisions issued" 3 (List.length sched);
  Alcotest.(check bool) "work remains" false (Runtime.all_quiet rt)

let test_phase_switches_permanently () =
  let rt = mk_runtime ~counts:[| 4; 4 |] () in
  (* 2 decisions of first-runnable, then cap(1, first) alternation *)
  let driver =
    Dsl.compile (Dsl.Seq (2, Dsl.First, Dsl.Cap (1, Dsl.First))) ~seed:1 ~k:2
  in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check (list int))
    "first-first then alternation"
    [ 0; 0; 0; 1; 0; 1; 1; 1 ]
    sched;
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

(* ------------------------------------------------------------------ *)
(* Regime edge cases (the bugfix coverage)                             *)
(* ------------------------------------------------------------------ *)

let test_crash_plan_skips_decided_victim () =
  let rt = mk_runtime ~counts:[| 1; 12 |] () in
  (* run the victim to completion before the adversary ever speaks *)
  while Runtime.status (Runtime.proc_by_pid rt 0) = Runtime.Runnable do
    Runtime.commit rt (Runtime.proc_by_pid rt 0)
  done;
  let driver =
    Dsl.compile (Dsl.Crash_points (Dsl.Pids [ 0 ], Dsl.First)) ~seed:3 ~k:2
  in
  let sched, crashes = drive_dsl rt driver in
  Alcotest.(check int) "no crash issued for a decided victim" 0 crashes;
  Alcotest.(check int) "the survivor finishes" 12 (List.length sched);
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

let test_crashw_skips_decided_victim () =
  let rt = mk_runtime ~counts:[| 1; 12 |] () in
  while Runtime.status (Runtime.proc_by_pid rt 0) = Runtime.Runnable do
    Runtime.commit rt (Runtime.proc_by_pid rt 0)
  done;
  let driver =
    Dsl.compile (Dsl.Crash_on_write (Dsl.Pids [ 0 ], Dsl.First)) ~seed:3 ~k:2
  in
  let _, crashes = drive_dsl rt driver in
  Alcotest.(check int) "no crash issued for a decided victim" 0 crashes;
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

let test_freeze_window_never_thaws () =
  (* a window far larger than the execution: the victim stays frozen
     until nothing else is eligible, then thaws permanently so the run
     still completes *)
  let rt = mk_runtime ~counts:[| 5; 5 |] () in
  let driver =
    Dsl.compile
      (Dsl.Freeze (Dsl.Pids [ 0 ], Dsl.Window (0, 1_000_000), Dsl.First))
      ~seed:1 ~k:2
  in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check (list int))
    "survivor first, frozen victim after the early permanent thaw"
    [ 1; 1; 1; 1; 1; 0; 0; 0; 0; 0 ]
    sched;
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

let test_lockstep_single_runnable () =
  let rt = mk_runtime ~counts:[| 5 |] () in
  let driver = Dsl.compile Dsl.Lockstep ~seed:1 ~k:1 in
  let sched, _ = drive_dsl rt driver in
  Alcotest.(check (list int)) "sole process runs" [ 0; 0; 0; 0; 0 ] sched;
  Alcotest.(check bool) "quiesced" true (Runtime.all_quiet rt)

(* ------------------------------------------------------------------ *)
(* Versioned RNG                                                       *)
(* ------------------------------------------------------------------ *)

let test_v1_golden_sequence () =
  (* the V1 stream is frozen forever: every seeded schedule and
     checked-in baseline depends on it bit-for-bit *)
  let r = Rng.create ~seed:42 in
  Alcotest.(check (list int))
    "seed 42, bound 1000"
    [ 140; 595; 570; 183; 779; 57; 244; 993 ]
    (List.init 8 (fun _ -> Rng.int r 1000))

let test_v2_determinism_and_range () =
  let a = Rng.create_v2 ~seed:7 and b = Rng.create_v2 ~seed:7 in
  for _ = 1 to 1000 do
    let bound = 1 + Rng.int (Rng.create ~seed:1) 1 in
    ignore bound;
    let x = Rng.int a 13 in
    Alcotest.(check int) "same stream" x (Rng.int b 13);
    if x < 0 || x >= 13 then Alcotest.failf "V2 draw %d out of range" x
  done;
  Alcotest.(check bool) "tagged V2" true (Rng.version a = Rng.V2);
  Alcotest.(check bool)
    "split inherits the version" true
    (Rng.version (Rng.split a) = Rng.V2);
  Alcotest.(check bool)
    "V1 split stays V1" true
    (Rng.version (Rng.split (Rng.create ~seed:3)) = Rng.V1)

let test_pick_weighted_rejects_zero () =
  let r = Rng.create ~seed:1 in
  (match Rng.pick_weighted r [ ("a", 0); ("b", 0) ] with
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "all-zero message" "Rng.pick_weighted: all weights are zero" msg
  | _ -> Alcotest.fail "all-zero weights accepted");
  (match Rng.pick_weighted r [] with
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "empty message" "Rng.pick_weighted: empty list" msg
  | _ -> Alcotest.fail "empty list accepted");
  match Rng.pick_weighted r [ ("a", 0); ("b", 2) ] with
  | "b", _ -> ()
  | x, _ -> Alcotest.failf "zero-weight element %s drawn" x

(* ------------------------------------------------------------------ *)
(* Open-loop workload                                                  *)
(* ------------------------------------------------------------------ *)

let small_service = { Drive.default with shards = 2; cap = 3; rounds = 4; seeds = [ 1 ] }
let small_workload = { Workload.default with service = small_service; rate = 2 }

let test_workload_deterministic_and_valid () =
  let doc () = Exsel_obs.Json.to_string (Workload.to_json (Workload.run small_workload)) in
  let a = doc () and b = doc () in
  Alcotest.(check string) "re-run is byte-identical" a b;
  match Validate.workload (Workload.run small_workload |> Workload.to_json) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "workload report invalid: %s" msg

let test_workload_parallel_identical () =
  let cfg =
    { small_workload with service = { small_service with seeds = [ 1; 2 ] } }
  in
  let seq = Exsel_obs.Json.to_string (Workload.to_json (Workload.run ~jobs:1 cfg)) in
  let par = Exsel_obs.Json.to_string (Workload.to_json (Workload.run ~jobs:2 cfg)) in
  Alcotest.(check string) "-j 2 byte-identical" seq par

let test_workload_quantiles_present () =
  let report = Workload.run small_workload in
  List.iter
    (fun c ->
      let h =
        Exsel_obs.Metrics.histogram c.Drive.c_metrics
          "exsel_workload_acquire_latency_commits"
          ~labels:[ ("pattern", c.Drive.c_load); ("backend", "sim") ]
      in
      if c.Drive.c_acquires > 0 then begin
        let p50 = Exsel_obs.Metrics.hquantile h 0.50 in
        let p999 = Exsel_obs.Metrics.hquantile h 0.999 in
        if p50 <= 0 then
          Alcotest.failf "%s cell has empty acquire histogram"
            c.Drive.c_load;
        if p999 < p50 then Alcotest.fail "p999 below p50"
      end)
    report.Drive.r_cells

let test_workload_adversary_schedules () =
  let cfg =
    {
      small_workload with
      service = { small_service with adversary = Some (Dsl.Cap (2, Dsl.Lockstep)) };
    }
  in
  let report = Workload.run cfg in
  Alcotest.(check int) "no violations" 0 report.Drive.r_violations;
  match Validate.workload (Workload.to_json report) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "adversary workload invalid: %s" msg

let test_workload_validate_rejections () =
  (match
     Workload.validate
       {
         small_workload with
         service =
           {
             small_service with
             backend = Native { domains = 2 };
             adversary = Some Dsl.Uniform;
           };
       }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "native + adversary accepted");
  match
    Workload.validate
      {
        small_workload with
        service =
          {
            small_service with
            adversary = Some (Dsl.Crash_points (Dsl.Half 0, Dsl.Uniform));
          };
      }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "crash-capable adversary accepted for the service"

let () =
  Alcotest.run "adversary"
    [
      ( "legacy-equivalence",
        [
          Alcotest.test_case "random" `Quick test_equiv_random;
          Alcotest.test_case "crash-half" `Quick test_equiv_crash_half;
          Alcotest.test_case "crash-on-write" `Quick test_equiv_crash_on_write;
          Alcotest.test_case "freeze" `Quick test_equiv_freeze;
          Alcotest.test_case "lockstep" `Quick test_equiv_lockstep;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_round_trip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "regime of_string" `Quick test_regime_of_string;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "cap alternates" `Quick test_cap_alternates;
          Alcotest.test_case "cap relaxes when alone" `Quick
            test_cap_relaxes_when_alone;
          Alcotest.test_case "budget drains lowest pid" `Quick
            test_budget_drains_lowest_pid;
          Alcotest.test_case "slack budget = inner term" `Quick
            test_budget_slack_is_inner_term;
          Alcotest.test_case "phase then halt" `Quick test_phase_budget_then_halt;
          Alcotest.test_case "phase switches permanently" `Quick
            test_phase_switches_permanently;
        ] );
      ( "regime-edges",
        [
          Alcotest.test_case "crash plan skips decided victim" `Quick
            test_crash_plan_skips_decided_victim;
          Alcotest.test_case "crashw skips decided victim" `Quick
            test_crashw_skips_decided_victim;
          Alcotest.test_case "freeze window never thaws" `Quick
            test_freeze_window_never_thaws;
          Alcotest.test_case "lockstep single runnable" `Quick
            test_lockstep_single_runnable;
        ] );
      ( "rng",
        [
          Alcotest.test_case "v1 golden sequence" `Quick test_v1_golden_sequence;
          Alcotest.test_case "v2 determinism and range" `Quick
            test_v2_determinism_and_range;
          Alcotest.test_case "pick_weighted zero weights" `Quick
            test_pick_weighted_rejects_zero;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic and valid" `Quick
            test_workload_deterministic_and_valid;
          Alcotest.test_case "-j 2 byte-identical" `Quick
            test_workload_parallel_identical;
          Alcotest.test_case "quantiles present" `Quick
            test_workload_quantiles_present;
          Alcotest.test_case "adversary schedules" `Quick
            test_workload_adversary_schedules;
          Alcotest.test_case "validate rejections" `Quick
            test_workload_validate_rejections;
        ] );
    ]
