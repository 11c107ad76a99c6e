(* Tests for the long-lived renaming service (lib/service): shard-router
   bookkeeping, per-shard core generation soundness, cross-validation
   against the functorized Long_lived oracle, churn campaigns, and the
   golden seeded outputs and claim checks of both loads. *)

open Exsel_sim
module Core = Exsel_service.Core
module Router = Exsel_service.Router
module Drive = Exsel_service.Drive
module Churn = Exsel_service.Churn
module Workload = Exsel_service.Workload
module LL = Exsel_renaming.Long_lived
module Json = Exsel_obs.Json
module Validate = Exsel_testkit.Validate

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router_balances_cheapest () =
  let r = Router.create ~shards:3 ~cap:2 in
  let take () =
    match Router.route r with
    | Some i ->
        Router.admit r i;
        i
    | None -> Alcotest.fail "router rejected with free shards"
  in
  (* least (occupancy, admitted, index): round-robin while all equal *)
  Alcotest.(check (list int))
    "fills shards evenly" [ 0; 1; 2; 0; 1; 2 ]
    (List.init 6 (fun _ -> take ()))

let test_router_spills_ring_wise () =
  let r = Router.create ~shards:3 ~cap:1 in
  (match Router.route ~prefer:0 r with
  | Some 0 -> Router.admit r 0
  | _ -> Alcotest.fail "preferred shard should be honored");
  Alcotest.(check int) "no spill yet" 0 (Router.spills r);
  (match Router.route ~prefer:0 r with
  | Some 1 -> Router.admit r 1
  | other ->
      Alcotest.failf "expected spill to shard 1, got %s"
        (match other with Some i -> string_of_int i | None -> "reject"));
  Alcotest.(check int) "one spill" 1 (Router.spills r);
  (match Router.route ~prefer:0 r with
  | Some 2 -> Router.admit r 2
  | _ -> Alcotest.fail "expected spill to shard 2");
  Alcotest.(check (option int)) "full service rejects" None (Router.route r);
  Alcotest.(check int) "one reject" 1 (Router.rejects r)

let test_router_recycle_gating () =
  let r = Router.create ~shards:1 ~cap:2 in
  Router.admit r 0;
  Router.admit r 0;
  Alcotest.(check bool) "worn but live" false (Router.needs_recycle r 0);
  Router.crash r 0;
  Router.depart r 0;
  (* one pinned session left: still not recyclable *)
  Alcotest.(check bool) "pinned blocks recycle" false (Router.needs_recycle r 0);
  Alcotest.(check int) "occupancy counts pinned" 1 (Router.occupancy r 0);
  Alcotest.(check_raises) "recycled refuses"
    (Invalid_argument "Router.recycled: not recyclable") (fun () ->
      Router.recycled r 0)

let test_router_recycle_resets_wear () =
  let r = Router.create ~shards:1 ~cap:1 in
  Router.admit r 0;
  Alcotest.(check (option int)) "worn out" None (Router.route r);
  Router.depart r 0;
  Alcotest.(check bool) "recyclable" true (Router.needs_recycle r 0);
  Router.recycled r 0;
  Alcotest.(check int) "epoch bumped" 1 (Router.epoch r 0);
  Alcotest.(check int) "wear reset" 0 (Router.admitted r 0);
  Alcotest.(check (option int)) "admissible again" (Some 0) (Router.route r)

(* ------------------------------------------------------------------ *)
(* Core: generations                                                   *)
(* ------------------------------------------------------------------ *)

let seq_run rt body =
  ignore (Runtime.spawn rt ~name:"op" body);
  Scheduler.run rt (Scheduler.sequential ())

let test_core_generations_never_reissued () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let core =
    Core.create ~rng:(Rng.create ~seed:7) mem ~name:"shard" ~cap:2
  in
  let slots = ref [] in
  seq_run rt (fun () ->
      slots := List.filter_map (fun c -> Core.join core ~client:c) [ 11; 22 ]);
  let slots = !slots in
  Alcotest.(check int) "both sessions joined" 2 (List.length slots);
  let seen = Hashtbl.create 32 in
  for round = 1 to 5 do
    List.iter
      (fun slot ->
        seq_run rt (fun () ->
            let name, gen = Core.acquire core ~slot in
            if Hashtbl.mem seen (name, gen) then
              Alcotest.failf "round %d: lease (%d, %d) reissued" round name gen;
            Hashtbl.add seen (name, gen) ();
            Core.release core ~slot ~name))
      slots
  done;
  Alcotest.(check int) "10 distinct leases" 10 (Hashtbl.length seen)

let test_core_crash_pins_name_and_generation () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let core =
    Core.create ~rng:(Rng.create ~seed:3) mem ~name:"shard" ~cap:2
  in
  let slot = ref (-1) and lease = ref (-1, -1) in
  seq_run rt (fun () ->
      slot := Option.get (Core.join core ~client:5);
      lease := Core.acquire core ~slot:!slot);
  (* the holder vanishes without releasing: name stays published and its
     generation is never incremented *)
  let name, gen = !lease in
  Alcotest.(check (option int))
    "pinned name still published" (Some name)
    (Core.holder_view core).(!slot);
  Alcotest.(check int) "generation frozen" gen (Core.generations core).(name)

let test_core_recycle_carries_generations () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let core =
    Core.create ~rng:(Rng.create ~seed:9) mem ~name:"shard.e0" ~cap:1
  in
  seq_run rt (fun () ->
      let slot = Option.get (Core.join core ~client:1) in
      for _ = 1 to 3 do
        let name, _ = Core.acquire core ~slot in
        Core.release core ~slot ~name
      done);
  let gens = Core.generations core in
  Alcotest.(check int) "three releases bumped name 0" 3 gens.(0);
  let core' =
    Core.create ~gen0:gens ~rng:(Rng.create ~seed:10) mem ~name:"shard.e1"
      ~cap:1
  in
  Alcotest.(check (array int))
    "fresh incarnation starts at the old generations" gens
    (Core.generations core');
  let lease = ref (-1, -1) in
  seq_run rt (fun () ->
      let slot = Option.get (Core.join core' ~client:2) in
      lease := Core.acquire core' ~slot);
  Alcotest.(check (pair int int))
    "recycled name is a new generation" (0, 3) !lease

let test_core_entry_wears_out () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let core =
    Core.create ~rng:(Rng.create ~seed:2) mem ~name:"shard" ~cap:1
  in
  let a = ref None and b = ref None in
  seq_run rt (fun () -> a := Core.join core ~client:1);
  seq_run rt (fun () -> b := Core.join core ~client:2);
  Alcotest.(check bool) "first admission lands" true (!a <> None);
  Alcotest.(check (option int)) "second admission overflows" None !b

(* ------------------------------------------------------------------ *)
(* Cross-validation against the Long_lived oracle                      *)
(* ------------------------------------------------------------------ *)

(* The service core must agree with the bare functorized Long_lived
   object (satellite of this PR: Long_lived.Make is the reference
   oracle) on any sequential acquire/release script: the generation
   plumbing must not perturb which names the snapshot core hands out. *)
let test_core_matches_long_lived_oracle () =
  for seed = 1 to 10 do
    let cap = 3 in
    let rng = Rng.create ~seed in
    (* service side *)
    let mem_s = Memory.create () in
    let rt_s = Runtime.create mem_s in
    let core =
      Core.create ~rng:(Rng.create ~seed:100) mem_s ~name:"svc" ~cap
    in
    let slots = Array.make cap (-1) in
    seq_run rt_s (fun () ->
        Array.iteri
          (fun i _ ->
            slots.(i) <- Option.get (Core.join core ~client:(1000 + i)))
          slots);
    (* oracle side: bare long-lived object over the same slot space *)
    let mem_o = Memory.create () in
    let rt_o = Runtime.create mem_o in
    let ll = LL.create mem_o ~name:"oracle" ~n:(Core.slots core) in
    let holding = Array.make cap None in
    for _step = 1 to 40 do
      let i = Rng.int rng cap in
      match holding.(i) with
      | None ->
          let svc = ref (-1, -1) and ora = ref (-1) in
          seq_run rt_s (fun () -> svc := Core.acquire core ~slot:slots.(i));
          seq_run rt_o (fun () -> ora := LL.acquire ll ~me:slots.(i));
          let name, _gen = !svc in
          if name <> !ora then
            Alcotest.failf "seed %d: service name %d, oracle name %d" seed
              name !ora;
          holding.(i) <- Some name
      | Some name ->
          seq_run rt_s (fun () -> Core.release core ~slot:slots.(i) ~name);
          seq_run rt_o (fun () -> LL.release ll ~me:slots.(i));
          holding.(i) <- None
    done
  done

(* ------------------------------------------------------------------ *)
(* Churn campaigns                                                     *)
(* ------------------------------------------------------------------ *)

let small_service =
  { Drive.default with shards = 2; cap = 3; rounds = 5; seeds = [ 1; 2 ] }

let small_config = { Churn.default with service = small_service; sessions = 5 }

let test_churn_campaign_green () =
  let report = Churn.run small_config in
  Alcotest.(check int) "cells" 6 (List.length report.Drive.r_cells);
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d clean" c.Drive.c_load c.Drive.c_seed)
        [] c.Drive.c_violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d acquired" c.Drive.c_load c.Drive.c_seed)
        true (c.Drive.c_acquires > 0))
    report.Drive.r_cells;
  Alcotest.(check int) "no violations" 0 report.Drive.r_violations

let cells_of_regime report regime =
  List.filter
    (fun c -> c.Drive.c_load = Churn.regime_id regime)
    report.Drive.r_cells

let test_churn_regimes_exercise_faults () =
  let report = Churn.run small_config in
  let sum f regime =
    List.fold_left (fun acc c -> acc + f c) 0 (cells_of_regime report regime)
  in
  Alcotest.(check bool)
    "crash-rejoin crashes" true
    (sum (fun c -> c.Drive.c_crashes) Churn.Crash_rejoin > 0);
  Alcotest.(check bool)
    "hot-shard spills" true
    (sum (fun c -> c.Drive.c_spills) Churn.Hot_shard > 0);
  Alcotest.(check bool)
    "waves departs and rejoins" true
    (sum (fun c -> c.Drive.c_joins) Churn.Waves > small_config.Churn.sessions)

let test_churn_recycles_worn_shards () =
  (* one seat, one entry slot: every departure wears the shard out and
     the next arrival needs a recycled incarnation *)
  let cfg =
    {
      Churn.service =
        { Drive.default with shards = 1; cap = 1; rounds = 8; seeds = [ 1; 2; 3 ] };
      sessions = 1;
      regimes = [ Churn.Waves ];
    }
  in
  let report = Churn.run cfg in
  Alcotest.(check int) "clean" 0 report.Drive.r_violations;
  let recycles =
    List.fold_left (fun a c -> a + c.Drive.c_recycles) 0 report.Drive.r_cells
  in
  Alcotest.(check bool) "some shard recycled" true (recycles > 0)

let test_churn_adaptive_entry_green () =
  let cfg =
    {
      small_config with
      service = { small_service with entry = Core.Adaptive; seeds = [ 4 ] };
    }
  in
  let report = Churn.run cfg in
  Alcotest.(check int) "adaptive entry clean" 0 report.Drive.r_violations

let test_churn_parallel_byte_identical () =
  let seq = Churn.run ~jobs:1 small_config in
  let par = Churn.run ~jobs:2 small_config in
  Alcotest.(check string)
    "-j 2 report is byte-identical to -j 1"
    (Json.to_string (Churn.to_json seq))
    (Json.to_string (Churn.to_json par))

let test_churn_events_cover_cells () =
  let started = ref 0 and finished = ref 0 in
  let on_event = function
    | Drive.Cell_started _ -> incr started
    | Drive.Cell_finished _ -> incr finished
  in
  let report = Churn.run ~on_event small_config in
  Alcotest.(check int) "started" (List.length report.Drive.r_cells) !started;
  Alcotest.(check int) "finished" (List.length report.Drive.r_cells) !finished

let test_churn_native_smoke () =
  let cfg =
    {
      Churn.default with
      service =
        {
          Drive.default with
          cap = 2;
          rounds = 3;
          seeds = [ 1 ];
          backend = Native { domains = 2 };
        };
      sessions = 3;
    }
  in
  let report = Churn.run cfg in
  Alcotest.(check int) "native churn clean" 0 report.Drive.r_violations;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s native acquired" c.Drive.c_load)
        true (c.Drive.c_acquires > 0))
    report.Drive.r_cells;
  match Validate.service (Churn.to_json report) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "native report invalid: %s" e

let test_churn_rejects_bad_config () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Churn.run: shards must be positive") (fun () ->
      ignore
        (Churn.run
           { small_config with service = { small_service with shards = 0 } }));
  Alcotest.check_raises "no regimes"
    (Invalid_argument "Churn.run: at least one churn regime required")
    (fun () -> ignore (Churn.run { small_config with Churn.regimes = [] }))

let test_churn_traces_sim_only () =
  let traces = Churn.shard_traces small_config Churn.Hot_shard ~seed:1 in
  Alcotest.(check int) "one trace per shard" small_service.shards
    (List.length traces);
  let busiest =
    List.fold_left (fun a (_, c, _) -> max a c) 0 traces
  in
  Alcotest.(check bool) "busiest shard committed" true (busiest > 0);
  List.iter
    (fun (_, commits, events) ->
      Alcotest.(check bool)
        "trace events track commits" true
        (commits = 0 || events <> []))
    traces;
  Alcotest.check_raises "native traces refused"
    (Invalid_argument "Churn.shard_traces: traces are commit-clock (sim only)")
    (fun () ->
      ignore
        (Churn.shard_traces
           {
             small_config with
             service = { small_service with backend = Native { domains = 2 } };
           }
           Churn.Waves ~seed:1))

(* ------------------------------------------------------------------ *)
(* Report documents and validators                                     *)
(* ------------------------------------------------------------------ *)

let test_report_json_schema_and_validator () =
  let report = Churn.run small_config in
  let j = Churn.to_json report in
  Alcotest.(check (option string))
    "schema tag" (Some "exsel-service/1")
    (match Json.member "schema" j with
    | Some (Json.String s) -> Some s
    | _ -> None);
  (match Validate.service j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report rejected: %s" e);
  match Validate.metrics_doc (Exsel_obs.Metrics.to_json report.Drive.r_metrics)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics rejected: %s" e

let test_validator_catches_lying_ok () =
  let report =
    Churn.run { small_config with service = { small_service with seeds = [ 1 ] } }
  in
  let j = Churn.to_json report in
  let rec patch = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "ok" then (k, Json.Bool false) else (k, patch v))
             fields)
    | Json.List l -> Json.List (List.map patch l)
    | other -> other
  in
  match Validate.service (patch j) with
  | Ok () -> Alcotest.fail "validator accepted ok=false with no violations"
  | Error _ -> ()

(* Tests execute in _build/default/test; the documentation lives in the
   source tree, so walk upward to the repo root (CI also gates the same
   checks through tools/validate_docs.exe docs). *)
let test_docs_cross_references () =
  let rec find_root dir depth =
    if depth > 6 then None
    else if Sys.file_exists (Filename.concat dir "DESIGN.md") then Some dir
    else find_root (Filename.dirname dir) (depth + 1)
  in
  match find_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.skip ()
  | Some root -> (
      let read name =
        In_channel.with_open_text (Filename.concat root name)
          In_channel.input_all
      in
      match
        Validate.service_docs ~design:(read "DESIGN.md")
          ~experiments:(read "EXPERIMENTS.md")
          ~algorithms:(read "doc/ALGORITHMS.md") ~readme:(read "README.md")
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "docs cross-reference broken: %s" e)

(* ------------------------------------------------------------------ *)
(* Golden seeded outputs                                               *)
(* ------------------------------------------------------------------ *)

(* The documents the CLI writes for the two CI simulator configs, pinned
   byte for byte: the --json report, the --metrics-out exposition and the
   -j 1 --events stream of
     service --shards 2 --cap 4 --sessions 6 --rounds 6 --seeds 1,2
     workload --shards 2 --cap 4 --rounds 8 --rate 3 --seeds 1,2
   Any change to a draw, a check or a rendering shows up here. *)
let check_golden file actual =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" file) In_channel.input_all
  in
  if expected <> actual then begin
    let n = min (String.length expected) (String.length actual) in
    let rec first i =
      if i < n && expected.[i] = actual.[i] then first (i + 1) else i
    in
    let i = first 0 in
    let around s =
      let lo = max 0 (i - 40) in
      String.sub s lo (min (String.length s - lo) 100)
    in
    Alcotest.failf "%s differs at byte %d:\n  want ...%s...\n  got  ...%s..."
      file i (around expected) (around actual)
  end

let golden_run name ~run ~start ~event ~done_ ~to_json =
  let events = ref [] in
  let report = run ~on_event:(fun ev -> events := event ev :: !events) in
  let line j = Json.to_string j ^ "\n" in
  check_golden (name ^ ".json") (line (to_json report));
  check_golden (name ^ ".prom")
    (Exsel_obs.Metrics.to_openmetrics report.Drive.r_metrics);
  check_golden (name ^ ".events")
    (String.concat ""
       (List.map line ((start :: List.rev !events) @ [ done_ report ])))

let test_golden_service () =
  let cfg =
    {
      Churn.service =
        { Drive.default with shards = 2; cap = 4; rounds = 6; seeds = [ 1; 2 ] };
      sessions = 6;
      regimes = Churn.all_regimes;
    }
  in
  golden_run "service"
    ~run:(fun ~on_event -> Churn.run ~on_event cfg)
    ~start:(Churn.start_event cfg) ~event:Churn.event_json
    ~done_:Drive.done_event ~to_json:Churn.to_json

let test_golden_workload () =
  let cfg =
    {
      Workload.default with
      service =
        { Drive.default with shards = 2; cap = 4; rounds = 8; seeds = [ 1; 2 ] };
      rate = 3;
    }
  in
  golden_run "workload"
    ~run:(fun ~on_event -> Workload.run ~on_event cfg)
    ~start:(Workload.start_event cfg) ~event:Workload.event_json
    ~done_:Drive.done_event ~to_json:Workload.to_json

(* ------------------------------------------------------------------ *)
(* qcheck: concurrent holders never collide                            *)
(* ------------------------------------------------------------------ *)

(* Both loads over random service shapes: no cell may report a
   violation of any kind — exclusive holds, generation reuse, the
   adaptive bound, leaks, crash pins, entry overflow or liveness.  Half
   the draws run one arrival pattern, with [n] as its rate; the rest run
   every churn regime, with [n] as the session target. *)
let prop_no_colliding_holders =
  QCheck.Test.make ~count:60 ~name:"concurrent holders never collide"
    QCheck.(
      pair
        (quad (int_range 1 3) (int_range 1 4) (int_range 1 6) (int_range 1 1000))
        (triple bool (int_range 0 5) (int_range 1 4)))
    (fun ((shards, cap, n, seed), (adaptive, load, hold)) ->
      let service =
        {
          Drive.default with
          shards;
          cap;
          rounds = 4;
          seeds = [ seed ];
          entry = (if adaptive then Core.Adaptive else Core.Efficient);
        }
      in
      let cells =
        match List.nth_opt Workload.all_patterns load with
        | None ->
            (Churn.run { Churn.default with service; sessions = n }).Drive.r_cells
        | Some pattern ->
            (Workload.run
               { Workload.default with service; rate = n; hold; patterns = [ pattern ] })
              .Drive.r_cells
      in
      List.for_all
        (fun (c : Drive.cell) ->
          c.c_violations = []
          || QCheck.Test.fail_reportf "%s seed %d: %s" c.c_load c.c_seed
               (String.concat "; " c.c_violations))
        cells)

let () =
  Alcotest.run "service"
    [
      ( "router",
        [
          Alcotest.test_case "cheapest balancing" `Quick
            test_router_balances_cheapest;
          Alcotest.test_case "ring-wise spill and reject" `Quick
            test_router_spills_ring_wise;
          Alcotest.test_case "recycle gating" `Quick test_router_recycle_gating;
          Alcotest.test_case "recycle resets wear" `Quick
            test_router_recycle_resets_wear;
        ] );
      ( "core",
        [
          Alcotest.test_case "generations never reissued" `Quick
            test_core_generations_never_reissued;
          Alcotest.test_case "crash pins name and generation" `Quick
            test_core_crash_pins_name_and_generation;
          Alcotest.test_case "recycle carries generations" `Quick
            test_core_recycle_carries_generations;
          Alcotest.test_case "entry wears out" `Quick test_core_entry_wears_out;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "core matches Long_lived oracle" `Quick
            test_core_matches_long_lived_oracle;
        ] );
      ( "churn",
        [
          Alcotest.test_case "campaign green" `Quick test_churn_campaign_green;
          Alcotest.test_case "regimes exercise faults" `Quick
            test_churn_regimes_exercise_faults;
          Alcotest.test_case "recycles worn shards" `Quick
            test_churn_recycles_worn_shards;
          Alcotest.test_case "adaptive entry" `Quick
            test_churn_adaptive_entry_green;
          Alcotest.test_case "-j 2 byte-identical" `Quick
            test_churn_parallel_byte_identical;
          Alcotest.test_case "events cover cells" `Quick
            test_churn_events_cover_cells;
          Alcotest.test_case "native smoke" `Quick test_churn_native_smoke;
          Alcotest.test_case "bad config rejected" `Quick
            test_churn_rejects_bad_config;
          Alcotest.test_case "traces are sim-only" `Quick
            test_churn_traces_sim_only;
        ] );
      ( "json",
        [
          Alcotest.test_case "exsel-service/1 validates" `Quick
            test_report_json_schema_and_validator;
          Alcotest.test_case "validator rejects lying ok" `Quick
            test_validator_catches_lying_ok;
          Alcotest.test_case "docs cross-references" `Quick
            test_docs_cross_references;
        ] );
      ( "golden",
        [
          Alcotest.test_case "service outputs byte-identical" `Quick
            test_golden_service;
          Alcotest.test_case "workload outputs byte-identical" `Quick
            test_golden_workload;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_no_colliding_holders ] );
    ]
