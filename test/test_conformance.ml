(* Tests for the conformance-campaign harness (lib/conformance) and the
   Spec bound-shape properties it relies on. *)

open Exsel_sim
module Runner = Exsel_conformance.Runner
module Adapter = Exsel_conformance.Adapter
module Regime = Exsel_conformance.Regime
module Campaign = Exsel_conformance.Campaign
module Json = Exsel_obs.Json
module Spec = Exsel_renaming.Spec

let small_config ~algos ~regimes ~seeds ~k =
  { Campaign.default with algos; regimes; seeds; k }

let adapter id =
  match Adapter.find id with
  | Some a -> a
  | None -> Alcotest.failf "adapter %s missing" id

let regime id =
  match Regime.find id with
  | Some r -> r
  | None -> Alcotest.failf "regime %s missing" id

(* ------------------------------------------------------------------ *)
(* Campaigns on honest algorithms                                      *)
(* ------------------------------------------------------------------ *)

let test_honest_campaign_green () =
  let cfg =
    small_config ~algos:Adapter.honest ~regimes:Regime.all ~seeds:[ 1 ] ~k:3
  in
  let report = Campaign.run cfg in
  Alcotest.(check int)
    "cells" (List.length Adapter.honest * List.length Regime.all)
    (List.length report.Campaign.r_cells);
  Alcotest.(check int) "no violations" 0 report.Campaign.r_violations

let test_crash_regimes_crash () =
  (* the crashing regimes must actually exercise the fault model *)
  let cfg =
    small_config
      ~algos:[ adapter "polylog" ]
      ~regimes:[ regime "crash-half"; regime "crash-on-write" ]
      ~seeds:[ 1; 2 ] ~k:4
  in
  let report = Campaign.run cfg in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Campaign.c_regime ^ " crashed someone")
        true (c.Campaign.c_crashed > 0))
    report.Campaign.r_cells

let test_campaign_deterministic () =
  let cfg =
    small_config
      ~algos:[ adapter "efficient" ]
      ~regimes:[ regime "random"; regime "freeze" ]
      ~seeds:[ 1; 2 ] ~k:4
  in
  let r1 = Campaign.run cfg and r2 = Campaign.run cfg in
  List.iter2
    (fun c1 c2 ->
      Alcotest.(check int)
        "commits equal" c1.Campaign.c_commits c2.Campaign.c_commits;
      Alcotest.(check int)
        "max_steps equal" c1.Campaign.c_max_steps c2.Campaign.c_max_steps)
    r1.Campaign.r_cells r2.Campaign.r_cells

(* ------------------------------------------------------------------ *)
(* The negative control                                                *)
(* ------------------------------------------------------------------ *)

let buggy_violation () =
  let cfg =
    small_config ~algos:[ adapter "buggy-ma" ]
      ~regimes:[ regime "lockstep" ]
      ~seeds:[ 1; 2; 3 ] ~k:4
  in
  let report = Campaign.run cfg in
  match report.Campaign.r_cells with
  | [ { Campaign.c_violation = Some v; _ } ] -> v
  | _ -> Alcotest.fail "buggy-ma not caught"

let test_buggy_caught_and_shrunk () =
  let v = buggy_violation () in
  Alcotest.(check bool)
    "failure names exclusiveness" true
    (String.length v.Campaign.v_failure >= 13
    && String.sub v.Campaign.v_failure 0 13 = "exclusiveness");
  match v.Campaign.v_shrunk with
  | None -> Alcotest.fail "violation not shrunk"
  | Some shrunk ->
      Alcotest.(check bool)
        "shrunk no longer than recorded" true
        (List.length shrunk <= List.length v.Campaign.v_schedule);
      Alcotest.(check bool)
        "shrunk failure reported" true
        (v.Campaign.v_shrunk_failure <> None);
      Alcotest.(check bool)
        "trace captured" true
        (v.Campaign.v_trace <> [])

let test_buggy_counterexample_replays () =
  (* the shrunk schedule must reproduce the violation on a fresh
     instance, without the regime that found it *)
  let v = buggy_violation () in
  let shrunk = Option.get v.Campaign.v_shrunk in
  let spec =
    (adapter "buggy-ma").Adapter.make ~seed:v.Campaign.v_seed ~k:4
      ~steps_multiple:1.0
  in
  let inst = spec.Runner.init () in
  Explore.replay inst.Runner.runtime shrunk;
  match inst.Runner.check () with
  | Ok () -> Alcotest.fail "shrunk schedule no longer violates"
  | Error msg ->
      Alcotest.(check string)
        "same failure as recorded"
        (Option.get v.Campaign.v_shrunk_failure)
        msg

let test_honest_ma_fixes_the_race () =
  (* same grid walk, honest splitter: the lockstep campaign that breaks
     buggy-ma stays green *)
  let cfg =
    small_config ~algos:[ adapter "ma" ]
      ~regimes:[ regime "lockstep" ]
      ~seeds:[ 1; 2; 3 ] ~k:4
  in
  Alcotest.(check int)
    "no violations" 0 (Campaign.run cfg).Campaign.r_violations

(* ------------------------------------------------------------------ *)
(* Runner internals                                                    *)
(* ------------------------------------------------------------------ *)

let test_runner_detects_livelock () =
  let spec =
    {
      Runner.algo = "spin";
      claim = "none";
      init =
        (fun () ->
          let mem = Memory.create () in
          let rt = Runtime.create mem in
          let r = Register.create mem ~name:"spin" 0 in
          for i = 0 to 1 do
            ignore
              (Runtime.spawn rt ~name:(Printf.sprintf "s%d" i) (fun () ->
                   while Runtime.read r >= 0 do
                     Runtime.write r (Runtime.read r + 1)
                   done))
          done;
          { Runner.runtime = rt; check = (fun () -> Ok ()) });
    }
  in
  let driver = (regime "random").Regime.make ~seed:1 ~k:2 in
  let outcome = Runner.drive ~max_commits:100 spec ~driver in
  match outcome.Runner.failure with
  | Some msg ->
      Alcotest.(check bool)
        "liveness failure" true
        (String.length msg >= 9 && String.sub msg 0 9 = "liveness:")
  | None -> Alcotest.fail "livelock not detected"

let test_runner_schedule_replays () =
  (* the recorded schedule alone reproduces the execution: same commit
     count, same per-process steps *)
  let make () = (adapter "efficient").Adapter.make ~seed:7 ~k:3 ~steps_multiple:1.0 in
  let driver = (regime "crash-half").Regime.make ~seed:7 ~k:3 in
  let outcome = Runner.drive (make ()) ~driver in
  Alcotest.(check (option string)) "honest run ok" None outcome.Runner.failure;
  let inst = (make ()).Runner.init () in
  Explore.replay inst.Runner.runtime outcome.Runner.schedule;
  Alcotest.(check bool) "replay reaches quiescence" true
    (Runtime.all_quiet inst.Runner.runtime);
  Alcotest.(check int) "same commit count" outcome.Runner.commits
    (Runtime.commits inst.Runner.runtime);
  Alcotest.(check int) "same max steps" outcome.Runner.max_steps
    (Runtime.max_steps inst.Runner.runtime);
  Alcotest.(check (result unit string)) "claims hold on replay" (Ok ())
    (inst.Runner.check ())

(* ------------------------------------------------------------------ *)
(* Shared plans                                                        *)
(* ------------------------------------------------------------------ *)

(* A campaign's regime cells, its shrink and the explorer's replays run
   many instances of one plan.  Every regime's run on one [a.instance p]
   must equal its run on a freshly planned instance — schedule, commits,
   names and internals — so nothing a run changes is kept in the plan.
   At k = 5 every Almost-Adaptive run ends at level 0, so a top level
   kept in the plan would go unseen there; at k = 16 crash-on-write ends
   a level below the regimes run before it. *)
let test_shared_plan_leaks_nothing () =
  let check (a : Adapter.t) ~k seed =
    let p = a.campaign ~seed ~k and ids = a.ids ~seed ~k in
    let shared = a.instance p in
    let run build (r : Regime.t) =
      let run = Adapter.run a build ~ids ~driver:(r.make ~seed ~k) in
      (run.outcome, run.results, run.built.internals ())
    in
    List.iter
      (fun (r : Regime.t) ->
        let what = Printf.sprintf "%s k=%d seed %d %s: " a.id k seed r.id in
        let o, names, internals = run shared r in
        let o', names', internals' = run (a.instance p) r in
        Alcotest.(check bool) (what ^ "schedule") true
          (o.Runner.schedule = o'.Runner.schedule);
        Alcotest.(check int) (what ^ "commits") o'.commits o.commits;
        Alcotest.(check (array (option int))) (what ^ "names") names' names;
        Alcotest.(check (list (pair string int))) (what ^ "internals") internals' internals)
      Regime.all
  in
  List.iter (fun a -> List.iter (check a ~k:5) [ 1; 2; 3 ]) Adapter.honest;
  check (adapter "almost-adaptive") ~k:16 1

(* ------------------------------------------------------------------ *)
(* Freeze windows (Exsel_lowerbound.Freeze reuse)                      *)
(* ------------------------------------------------------------------ *)

let test_freeze_window_freezes_and_thaws () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let r = Register.create mem ~name:"w" 0 in
  let procs =
    Array.init 4 (fun i ->
        Runtime.spawn rt ~name:(Printf.sprintf "f%d" i) (fun () ->
            for _ = 1 to 10 do
              ignore (Runtime.read r)
            done))
  in
  ignore procs;
  let victims = [ 0; 1 ] in
  let freeze_at = 5 and thaw_at = 15 in
  let in_window = ref [] in
  Runtime.on_commit rt (fun p _ ->
      let c = Runtime.commits rt - 1 in
      if c >= freeze_at && c < thaw_at then
        in_window := Runtime.pid p :: !in_window);
  let policy =
    Exsel_lowerbound.Freeze.freeze_window
      ~rng:(Rng.create ~seed:9)
      ~victims ~freeze_at ~thaw_at
  in
  Runtime.run rt policy;
  Alcotest.(check bool) "all complete after thaw" true (Runtime.all_quiet rt);
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "victim %d untouched inside window" pid)
        false
        (List.mem pid !in_window))
    victims;
  Alcotest.(check int) "everyone finished all ops" 40 (Runtime.commits rt)

let test_uniform_avoiding_never_picks_frozen () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let r = Register.create mem ~name:"u" 0 in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "u%d" i) (fun () ->
           for _ = 1 to 5 do
             ignore (Runtime.read r)
           done))
  done;
  let policy =
    Exsel_lowerbound.Freeze.uniform_avoiding
      ~rng:(Rng.create ~seed:4)
      ~frozen:(fun p -> Runtime.pid p = 2)
  in
  Runtime.on_commit rt (fun p _ ->
      if Runtime.pid p = 2 then Alcotest.fail "frozen process scheduled");
  (* the policy stops (returns None) once only the frozen process
     remains runnable *)
  Runtime.run rt policy;
  Alcotest.(check int) "others drained" 15 (Runtime.commits rt);
  Alcotest.(check int) "frozen still runnable" 1 (Runtime.num_runnable rt)

(* ------------------------------------------------------------------ *)
(* Report JSON                                                         *)
(* ------------------------------------------------------------------ *)

let test_report_json_schema () =
  let cfg =
    small_config
      ~algos:[ adapter "compete"; adapter "buggy-ma" ]
      ~regimes:[ regime "lockstep" ]
      ~seeds:[ 1 ] ~k:4
  in
  (* round-trip through the shared testkit parser: the checks below run
     against what a consumer of the rendered document actually sees *)
  let j =
    Exsel_testkit.Json_parse.roundtrip (Campaign.to_json (Campaign.run cfg))
  in
  Alcotest.(check (option string))
    "schema" (Some "exsel-conformance/1")
    (match Json.member "schema" j with Some (Json.String s) -> Some s | _ -> None);
  (match Json.member "violations" j with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "violations count wrong");
  (match Json.member "metrics" j with
  | Some m -> (
      match Exsel_testkit.Validate.metrics_doc m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "embedded exsel-metrics/1 invalid: %s" msg)
  | None -> Alcotest.fail "embedded metrics document missing");
  match Json.member "cells" j with
  | Some (Json.List [ ok_cell; bad_cell ]) -> (
      (match Json.member "ok" ok_cell with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "compete cell not ok");
      (match Json.member "ok" bad_cell with
      | Some (Json.Bool false) -> ()
      | _ -> Alcotest.fail "buggy cell not failed");
      match Json.member "violation" bad_cell with
      | Some v -> (
          (match Json.member "shrunk" v with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "shrunk schedule missing");
          match Json.member "trace" v with
          | Some t ->
              Alcotest.(check (option string))
                "embedded trace schema" (Some "exsel-trace/1")
                (match Json.member "schema" t with
                | Some (Json.String s) -> Some s
                | _ -> None)
          | None -> Alcotest.fail "trace missing")
      | None -> Alcotest.fail "violation object missing")
  | _ -> Alcotest.fail "cells shape wrong"

(* ------------------------------------------------------------------ *)
(* Spec shape properties (qcheck)                                      *)
(* ------------------------------------------------------------------ *)

let prop_steps_monotone_in_k =
  QCheck.Test.make ~name:"Spec steps shapes are monotone in k" ~count:200
    QCheck.(pair (int_range 1 4096) (int_range 2 1_000_000))
    (fun (k, n_names) ->
      Spec.basic_steps ~k:(k + 1) ~n_names >= Spec.basic_steps ~k ~n_names
      && Spec.efficient_steps ~k:(k + 1) >= Spec.efficient_steps ~k
      && Spec.almost_adaptive_steps ~k:(k + 1) ~n_names
         >= Spec.almost_adaptive_steps ~k ~n_names
      && Spec.adaptive_steps ~k:(k + 1) >= Spec.adaptive_steps ~k)

let prop_steps_monotone_in_names =
  QCheck.Test.make ~name:"Spec steps shapes are monotone in N" ~count:200
    QCheck.(pair (int_range 1 4096) (int_range 2 1_000_000))
    (fun (k, n_names) ->
      Spec.basic_steps ~k ~n_names:(2 * n_names) >= Spec.basic_steps ~k ~n_names
      && Spec.majority_steps ~n_names:(2 * n_names)
         >= Spec.majority_steps ~n_names
      && Spec.almost_adaptive_steps ~k ~n_names:(2 * n_names)
         >= Spec.almost_adaptive_steps ~k ~n_names)

let prop_name_bounds_exact =
  let rec lg_floor n = if n <= 1 then 0 else 1 + lg_floor (n / 2) in
  QCheck.Test.make
    ~name:"Spec name bounds are exactly 2k-1 and 8k-floor(lg k)-1" ~count:200
    QCheck.(int_range 1 100_000)
    (fun k ->
      Spec.efficient_names ~k = (2 * k) - 1
      && Spec.adaptive_names ~k = (8 * k) - lg_floor k - 1)

let () =
  Alcotest.run "conformance"
    [
      ( "campaign",
        [
          Alcotest.test_case "honest matrix green" `Quick
            test_honest_campaign_green;
          Alcotest.test_case "crash regimes crash" `Quick
            test_crash_regimes_crash;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
        ] );
      ( "negative control",
        [
          Alcotest.test_case "buggy-ma caught and shrunk" `Quick
            test_buggy_caught_and_shrunk;
          Alcotest.test_case "counterexample replays" `Quick
            test_buggy_counterexample_replays;
          Alcotest.test_case "honest ma green" `Quick
            test_honest_ma_fixes_the_race;
        ] );
      ( "runner",
        [
          Alcotest.test_case "livelock detected" `Quick
            test_runner_detects_livelock;
          Alcotest.test_case "schedule replays" `Quick
            test_runner_schedule_replays;
          Alcotest.test_case "shared plan leaks nothing" `Quick
            test_shared_plan_leaks_nothing;
        ] );
      ( "freeze",
        [
          Alcotest.test_case "freeze window" `Quick
            test_freeze_window_freezes_and_thaws;
          Alcotest.test_case "uniform avoiding" `Quick
            test_uniform_avoiding_never_picks_frozen;
        ] );
      ( "json",
        [ Alcotest.test_case "exsel-conformance/1" `Quick test_report_json_schema ] );
      ( "spec properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_steps_monotone_in_k;
            prop_steps_monotone_in_names;
            prop_name_bounds_exact;
          ] );
    ]
