(* Tests for the native OCaml 5 backend (DESIGN.md §12): the pure
   decision-log claim checker shared with the conformance adapters, the
   engine and its parked helper domains, register accounting on the atomic
   backend, every conformance adapter on real domains against its own
   claims, ma, efficient and adaptive across several domain counts and
   repeated trials, and the harness's metrics observation. *)

module Claims = Exsel_backend.Claims
module Engine = Exsel_native.Engine
module Backend = Exsel_native.Backend
module H = Exsel_native.Harness
module Adapter = Exsel_conformance.Adapter
module M = Exsel_obs.Metrics
module Json = Exsel_obs.Json
module JP = Exsel_testkit.Json_parse

(* ------------------------------------------------------------------ *)
(* Claims: the pure checker, exact message formats                     *)
(* ------------------------------------------------------------------ *)

let outcome ?(status = Claims.Done) ?(steps = 0) name result =
  { Claims.name; status; result; steps }

let check_err what expected = function
  | Ok () -> Alcotest.failf "%s: expected %S, got Ok" what expected
  | Error msg -> Alcotest.(check string) what expected msg

let test_claims_ok () =
  let outcomes = [| outcome "p0" (Some 2); outcome "p1" (Some 0) |] in
  match
    Claims.check ~completion:Claims.All_named ~k:2 ~outcomes ~bound:3 ()
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clean log rejected: %s" msg

let test_claims_exclusiveness () =
  let outcomes =
    [| outcome "p0" (Some 5); outcome "p1" (Some 1); outcome "p2" (Some 5) |]
  in
  check_err "duplicate name"
    "exclusiveness: name 5 assigned to both p0 and p2"
    (Claims.check ~completion:Claims.All_named ~k:3 ~outcomes ~bound:8 ())

let test_claims_name_bound () =
  let outcomes = [| outcome "p0" (Some 0); outcome "p1" (Some 9) |] in
  check_err "out of range" "name bound: p1 holds name 9 outside [0, 7)"
    (Claims.check ~completion:Claims.All_named ~k:2 ~outcomes ~bound:7 ())

let test_claims_completion () =
  let outcomes = [| outcome "p0" (Some 0); outcome "p1" None |] in
  check_err "nameless finisher" "completion: p1 terminated without a name"
    (Claims.check ~completion:Claims.All_named ~k:2 ~outcomes ~bound:3 ())

let test_claims_termination () =
  let outcomes =
    [| outcome "p0" (Some 0); outcome ~status:Claims.Runnable "p1" None |]
  in
  check_err "still runnable" "termination: p1 still runnable at quiescence"
    (Claims.check ~completion:Claims.All_named ~k:2 ~outcomes ~bound:3 ())

let test_claims_steps_budget_optional () =
  (* steps over budget fail only when a budget is requested: the native
     harness omits it (no commit clock), so steps = 0 vs real steps must
     not matter *)
  let outcomes = [| outcome ~steps:9 "p0" (Some 0) |] in
  check_err "budgeted" "steps: p0 took 9 local steps, budget 8"
    (Claims.check ~completion:Claims.All_named ~k:1 ~outcomes ~bound:1
       ~steps_budget:8.0 ());
  match Claims.check ~completion:Claims.All_named ~k:1 ~outcomes ~bound:1 () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unbudgeted check rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Engine: one-shot runs on parked helper domains                     *)
(* ------------------------------------------------------------------ *)

let test_engine_sequential_deterministic () =
  (* domains = 1 runs tasks in spawn order on the calling domain *)
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () ->
        log := i :: !log)
  done;
  Alcotest.(check int) "tasks" 10 (Engine.tasks e);
  Engine.run e ~domains:1;
  Alcotest.(check (list int)) "spawn order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_parallel_drains () =
  (* more tasks than domains: the queue must still drain completely *)
  let e = Engine.create () in
  let hits = Atomic.make 0 in
  for i = 0 to 31 do
    Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () ->
        Atomic.incr hits)
  done;
  Engine.run e ~domains:4;
  Alcotest.(check int) "all ran" 32 (Atomic.get hits)

let test_engine_failure_propagates () =
  let e = Engine.create () in
  let survivors = Atomic.make 0 in
  Engine.spawn e ~name:"ok0" (fun () -> Atomic.incr survivors);
  Engine.spawn e ~name:"boom" (fun () -> failwith "exploded");
  Engine.spawn e ~name:"ok1" (fun () -> Atomic.incr survivors);
  (match Engine.run e ~domains:2 with
  | () -> Alcotest.fail "expected Task_failed"
  | exception Engine.Task_failed (name, Failure msg) ->
      Alcotest.(check string) "task name" "boom" name;
      Alcotest.(check string) "original exn" "exploded" msg
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  (* the queue still drained: failure is recorded, not a hard stop *)
  Alcotest.(check int) "other tasks still ran" 2 (Atomic.get survivors)

(* The flight-record invariants every run must satisfy: present after
   the run, one event per task covering each index exactly once under its
   name ["t<index>"], spans attributed to real workers inside the run
   window, worker stats summing to the task count, busy within wall and
   non-negative overheads. *)
let check_telemetry ~domains ~n e =
  let tl =
    match Engine.telemetry e with
    | Some tl -> tl
    | None -> Alcotest.fail "telemetry missing after run"
  in
  Alcotest.(check int) "domains" domains tl.Engine.tl_domains;
  Alcotest.(check int) "one event per task" n (Array.length tl.Engine.tl_events);
  Alcotest.(check int) "one stat row per worker" domains
    (Array.length tl.Engine.tl_workers);
  let seen = Array.make n false in
  Array.iter
    (fun (ev : Engine.task_event) ->
      if seen.(ev.Engine.te_index) then
        Alcotest.failf "task %d recorded twice" ev.Engine.te_index;
      seen.(ev.Engine.te_index) <- true;
      Alcotest.(check string)
        "event name matches index"
        (Printf.sprintf "t%d" ev.Engine.te_index)
        ev.Engine.te_name;
      if ev.Engine.te_worker < 0 || ev.Engine.te_worker >= domains then
        Alcotest.failf "worker %d out of range" ev.Engine.te_worker;
      if Int64.compare ev.Engine.te_start_ns ev.Engine.te_stop_ns > 0 then
        Alcotest.fail "span stops before it starts";
      if Int64.compare ev.Engine.te_start_ns tl.Engine.tl_start_ns < 0 then
        Alcotest.fail "span starts before the run")
    tl.Engine.tl_events;
  let tasks_by_stat =
    Array.fold_left (fun acc w -> acc + w.Engine.ws_tasks) 0 tl.Engine.tl_workers
  in
  Alcotest.(check int) "worker stats cover all tasks" n tasks_by_stat;
  if Int64.compare (Engine.busy_ns tl) 0L < 0 then Alcotest.fail "negative busy";
  if Int64.compare (Engine.wall_ns tl) 0L < 0 then Alcotest.fail "negative wall";
  let util = Engine.utilization tl in
  if util < 0.0 || util > 1.0 then Alcotest.failf "utilization %f out of [0,1]" util;
  if Int64.compare tl.Engine.tl_spawn_ns 0L < 0 then
    Alcotest.fail "negative spawn overhead";
  if Int64.compare tl.Engine.tl_join_ns 0L < 0 then
    Alcotest.fail "negative join overhead"

let test_engine_telemetry () =
  let e = Engine.create () in
  let n = 12 in
  for i = 0 to n - 1 do
    Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () -> ())
  done;
  Alcotest.(check bool) "no telemetry before run" true (Engine.telemetry e = None);
  Engine.run e ~domains:3;
  check_telemetry ~domains:3 ~n e

let test_engine_telemetry_sequential () =
  (* domains = 1: every span lands on worker 0 and they never overlap *)
  let e = Engine.create () in
  for i = 0 to 7 do
    Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () -> ())
  done;
  Engine.run e ~domains:1;
  let tl = Option.get (Engine.telemetry e) in
  Alcotest.(check int) "single worker" 1 tl.Engine.tl_domains;
  let last = ref Int64.min_int in
  Array.iter
    (fun (ev : Engine.task_event) ->
      Alcotest.(check int) "worker 0" 0 ev.Engine.te_worker;
      if Int64.compare ev.Engine.te_start_ns !last < 0 then
        Alcotest.fail "sequential spans overlap";
      last := ev.Engine.te_stop_ns)
    tl.Engine.tl_events

let test_engine_one_shot () =
  let e = Engine.create () in
  Engine.spawn e ~name:"t" (fun () -> ());
  Engine.run e ~domains:1;
  (match Engine.spawn e ~name:"late" (fun () -> ()) with
  | () -> Alcotest.fail "spawn after run should raise"
  | exception Invalid_argument _ -> ());
  (match Engine.run e ~domains:1 with
  | () -> Alcotest.fail "second run should raise"
  | exception Invalid_argument _ -> ());
  match Engine.run (Engine.create ()) ~domains:0 with
  | () -> Alcotest.fail "domains = 0 should raise"
  | exception Invalid_argument _ -> ()

let test_engine_reuses_helpers () =
  (* two tasks that wait for each other (with a bound) run on two
     domains; the one that is not the caller must be the same parked
     helper in every batch *)
  let caller = (Domain.self () :> int) in
  let others =
    List.init 20 (fun batch ->
        let e = Engine.create () in
        let started = Array.init 2 (fun _ -> Atomic.make false) in
        let where = Array.make 2 caller in
        for i = 0 to 1 do
          Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () ->
              where.(i) <- (Domain.self () :> int);
              Atomic.set started.(i) true;
              let give_up = Sys.time () +. 5.0 in
              while (not (Atomic.get started.(1 - i))) && Sys.time () < give_up do
                Domain.cpu_relax ()
              done)
        done;
        Engine.run e ~domains:2;
        match List.filter (( <> ) caller) (Array.to_list where) with
        | [ other ] -> other
        | _ -> Alcotest.failf "batch %d did not run on two domains" batch)
  in
  let first = List.hd others in
  List.iteri
    (fun batch d ->
      if d <> first then
        Alcotest.failf "batch %d ran on domain %d, batch 0 on domain %d" batch d first)
    others

let test_engine_exactly_once () =
  (* many small batches at 2–4 domains, one in ten with a failing task:
     every task runs exactly once, the failure names its task, and every
     flight record holds.  Another one in ten has a slow task, so the
     caller outlasts its spin and blocks whenever a helper claims it. *)
  let rng = Random.State.make [| 23 |] in
  for batch = 0 to 1999 do
    let n = 1 + Random.State.int rng 8 in
    let domains = 2 + Random.State.int rng 3 in
    let failing = if batch mod 10 = 0 then Some (Random.State.int rng n) else None in
    let slow = if batch mod 10 = 5 then Some (Random.State.int rng n) else None in
    let runs = Array.init n (fun _ -> Atomic.make 0) in
    let e = Engine.create () in
    for i = 0 to n - 1 do
      Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () ->
          Atomic.incr runs.(i);
          if slow = Some i then
            for _ = 1 to 20_000 do
              Domain.cpu_relax ()
            done;
          if failing = Some i then failwith "planned")
    done;
    (match (Engine.run e ~domains, failing) with
    | (), None -> ()
    | (), Some i -> Alcotest.failf "batch %d: failure of t%d not raised" batch i
    | exception Engine.Task_failed (name, Failure _) ->
        let expected = Option.map (Printf.sprintf "t%d") failing in
        if Some name <> expected then
          Alcotest.failf "batch %d: Task_failed names %s" batch name
    | exception e -> Alcotest.failf "batch %d: %s" batch (Printexc.to_string e));
    Array.iteri
      (fun i r ->
        if Atomic.get r <> 1 then
          Alcotest.failf "batch %d: t%d ran %d times" batch i (Atomic.get r))
      runs;
    check_telemetry ~domains:(min domains n) ~n e
  done

let test_engine_lifecycle () =
  (* helpers belong to the domain that calls the engine: a spawned
     domain that ran a 2-domain batch stops its helpers as it exits, so
     joining it returns; and runs nested in another run's tasks complete
     on whichever domain the task landed *)
  let d =
    Domain.spawn (fun () ->
        let e = Engine.create () in
        let hits = Atomic.make 0 in
        for i = 0 to 3 do
          Engine.spawn e ~name:(Printf.sprintf "t%d" i) (fun () -> Atomic.incr hits)
        done;
        Engine.run e ~domains:2;
        Atomic.get hits)
  in
  Alcotest.(check int) "spawned domain's batch ran" 4 (Domain.join d);
  let outer = Engine.create () in
  let hits = Atomic.make 0 in
  for i = 0 to 3 do
    Engine.spawn outer ~name:(Printf.sprintf "t%d" i) (fun () ->
        let inner = Engine.create () in
        for j = 0 to 3 do
          Engine.spawn inner ~name:(Printf.sprintf "t%d" j) (fun () -> Atomic.incr hits)
        done;
        Engine.run inner ~domains:2)
  done;
  Engine.run outer ~domains:2;
  Alcotest.(check int) "nested runs completed" 16 (Atomic.get hits)

(* ------------------------------------------------------------------ *)
(* Backend: atomic registers and accounting                            *)
(* ------------------------------------------------------------------ *)

let test_backend_registers () =
  Alcotest.(check string) "label" "native" Backend.backend;
  let mem = Backend.create () in
  Alcotest.(check int) "fresh" 0 (Backend.registers mem);
  let r = Backend.alloc mem ~name:"r" 41 in
  let s = Backend.alloc mem ~name:"s" "init" in
  Alcotest.(check int) "counted" 2 (Backend.registers mem);
  Alcotest.(check int) "initial" 41 (Backend.read r);
  Backend.write r 42;
  Alcotest.(check int) "written" 42 (Backend.read r);
  Alcotest.(check int) "peek = read here" 42 (Backend.peek r);
  Backend.write s "next";
  Alcotest.(check string) "poly reg" "next" (Backend.read s)

let test_backend_register_names () =
  (* allocation names are kept (in allocation order), not dropped *)
  let mem = Backend.create () in
  Alcotest.(check (list string)) "fresh" [] (Backend.register_names mem);
  ignore (Backend.alloc mem ~name:"a" 0);
  ignore (Backend.alloc mem ~name:"b" 0);
  ignore (Backend.alloc mem ~name:"a" 0);
  Alcotest.(check (list string))
    "allocation order, duplicates kept" [ "a"; "b"; "a" ]
    (Backend.register_names mem);
  Alcotest.(check int) "count agrees" 3 (Backend.registers mem)

(* ------------------------------------------------------------------ *)
(* Probe backend: per-register access counting                         *)
(* ------------------------------------------------------------------ *)

module Probed = Exsel_native.Probe_backend.Make (Backend)

let test_probe_counts () =
  let mem = Probed.wrap (Backend.create ()) in
  let r = Probed.alloc mem ~name:"r" 0 in
  let s = Probed.alloc mem ~name:"s" 0 in
  let r2 = Probed.alloc mem ~name:"r" 0 in
  Alcotest.(check string) "label" "native+probe" Probed.backend;
  Alcotest.(check int) "registers delegate" 3 (Probed.registers mem);
  Probed.write r 1;
  Probed.write r 2;
  ignore (Probed.read r);
  ignore (Probed.read s);
  ignore (Probed.peek r);
  (* peek is the claim checker's backdoor: never counted *)
  ignore (Probed.read r2);
  Alcotest.(check int) "value delegated" 2 (Probed.read r);
  (* counts aggregate by allocation name, in first-allocation order;
     the read above counts too *)
  Alcotest.(check (list (triple string int int)))
    "aggregated by name"
    [ ("r", 3, 2); ("s", 1, 0) ]
    (Probed.counts mem)

(* ------------------------------------------------------------------ *)
(* Cross-validation: every algorithm, several domain counts, repeated  *)
(* trials, the paper's claims checked on each decision log             *)
(* ------------------------------------------------------------------ *)

let adapter id =
  match Adapter.find id with
  | Some a -> a
  | None -> Alcotest.failf "no adapter %S" id

let cross_validate id =
  let algo = adapter id in
  let n = 24 in
  List.iter
    (fun domains ->
      List.iter
        (fun seed ->
          let r = H.run ~algo ~n ~domains ~seed () in
          let what =
            Printf.sprintf "%s n=%d domains=%d seed=%d" r.H.algo n domains seed
          in
          (match H.check r with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s violates a claim: %s" what msg);
          Alcotest.(check int) (what ^ " all decided") n (H.decided r);
          Alcotest.(check int) (what ^ " latencies recorded") n
            (Array.length r.H.latency_ns);
          Array.iter
            (fun l ->
              if Int64.compare l 0L < 0 then
                Alcotest.failf "%s negative latency" what)
            r.H.latency_ns)
        [ 1; 2 ])
    [ 1; 2; 3 ]

let test_cross_validate_ma () = cross_validate "ma"
let test_cross_validate_efficient () = cross_validate "efficient"
let test_cross_validate_adaptive () = cross_validate "adaptive"

(* Every adapter runs on real domains through its own builder, and each
   honest one passes its own claims (majority's half bound, compete's
   single winner, everyone else named).  The negative control can only
   race with a second domain: one domain runs the tasks one after another,
   so every one of them decides.  The one-domain pass goes first, while no
   helper domain is parked (see the suite order below). *)
let test_every_adapter () =
  let n = 3 in
  List.iter
    (fun domains ->
      List.iter
        (fun (algo : Adapter.t) ->
          let r = H.run ~algo ~n ~domains ~seed:1 () in
          let what = Printf.sprintf "%s domains=%d" algo.Adapter.id domains in
          Alcotest.(check string) (what ^ " id") algo.Adapter.id r.H.algo;
          if algo.Adapter.honest then
            match H.check r with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s violates a claim: %s" what msg
          else if domains = 1 then
            Alcotest.(check int) (what ^ " all decided") n (H.decided r))
        Adapter.all)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Harness: clamp, warmup, probing, metrics observation                *)
(* ------------------------------------------------------------------ *)

let test_ns_to_int_clamp () =
  Alcotest.(check int) "zero" 0 (H.ns_to_int 0L);
  Alcotest.(check int) "small" 1234 (H.ns_to_int 1234L);
  Alcotest.(check int) "negative clamps to 0" 0 (H.ns_to_int (-5L));
  Alcotest.(check int) "Int64.max_int saturates" max_int
    (H.ns_to_int Int64.max_int);
  (* one past max_int wraps under Int64.to_int; the clamp must not *)
  let just_over = Int64.add (Int64.of_int max_int) 1L in
  Alcotest.(check int) "max_int + 1 saturates" max_int (H.ns_to_int just_over);
  Alcotest.(check int) "max_int exact" max_int
    (H.ns_to_int (Int64.of_int max_int))

let test_harness_warmup () =
  let r0 = H.run ~algo:(adapter "ma") ~n:8 ~domains:2 ~seed:1 () in
  Alcotest.(check int) "default no warmup" 0 r0.H.warmup;
  Alcotest.(check bool) "no warmup cost" true (r0.H.warmup_ns = 0L);
  let r = H.run ~warmup:2 ~algo:(adapter "ma") ~n:8 ~domains:2 ~seed:1 () in
  Alcotest.(check int) "warmup recorded" 2 r.H.warmup;
  Alcotest.(check bool) "warmup cost measured" true
    (Int64.compare r.H.warmup_ns 0L > 0);
  Alcotest.(check int) "measured run still decides all" 8 (H.decided r);
  match H.run ~warmup:(-1) ~algo:(adapter "ma") ~n:8 ~domains:1 ~seed:1 () with
  | _ -> Alcotest.fail "negative warmup should raise"
  | exception Invalid_argument _ -> ()

let test_harness_probe () =
  let plain = H.run ~algo:(adapter "ma") ~n:8 ~domains:2 ~seed:1 () in
  Alcotest.(check bool) "plain runs record no reg stats" true
    (plain.H.reg_stats = []);
  Alcotest.(check (list (pair int int))) "plain hot ranking empty" []
    (List.map (fun s -> (s.H.rs_reads, s.H.rs_writes)) (H.hot_registers plain));
  let r = H.run ~probe:true ~algo:(adapter "ma") ~n:8 ~domains:2 ~seed:1 () in
  (match H.check r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "probed run violates a claim: %s" msg);
  Alcotest.(check int) "probed run decides all" 8 (H.decided r);
  Alcotest.(check bool) "reg stats recorded" true (r.H.reg_stats <> []);
  let total s = s.H.rs_reads + s.H.rs_writes in
  if List.for_all (fun s -> total s = 0) r.H.reg_stats then
    Alcotest.fail "no register accesses counted";
  let ranked = H.hot_registers r in
  Alcotest.(check int) "ranking is a permutation"
    (List.length r.H.reg_stats) (List.length ranked);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        if total a < total b then Alcotest.fail "ranking not descending";
        monotone rest
    | _ -> ()
  in
  monotone ranked

let counters_of reg =
  List.map
    (fun c -> (JP.get_string "name" c, JP.get_int "value" c))
    (JP.get_list "counters" (JP.roundtrip (M.to_json reg)))

let count_sum name counters =
  List.fold_left
    (fun acc (n, v) -> if n = name then acc + v else acc)
    0 counters

let test_observe_records () =
  let n = 16 in
  let r = H.run ~algo:(adapter "ma") ~n ~domains:2 ~seed:1 () in
  let reg = M.create () in
  H.observe reg r;
  let labels = [ ("algo", "ma"); ("backend", "native") ] in
  let h = M.histogram reg "exsel_rename_latency_ns" ~labels in
  Alcotest.(check int) "one latency per process" n (M.hist_count h);
  (* decided-vs-spawned are separate counters; per-domain activity is
     labelled by executing domain.  Read them back through the rendered
     document, the only counter accessor. *)
  let counters = counters_of reg in
  Alcotest.(check int) "decisions" n
    (count_sum "exsel_rename_decisions" counters);
  Alcotest.(check int) "spawned" n
    (count_sum "exsel_rename_spawned" counters);
  Alcotest.(check int) "per-domain tasks sum to n" n
    (count_sum "exsel_domain_tasks" counters);
  Alcotest.(check bool) "no register counters without probe" true
    (count_sum "exsel_register_reads" counters = 0
    && count_sum "exsel_register_writes" counters = 0)

let test_observe_probe_registers () =
  let r = H.run ~probe:true ~algo:(adapter "ma") ~n:8 ~domains:2 ~seed:1 () in
  let reg = M.create () in
  H.observe reg r;
  let counters = counters_of reg in
  let reads = count_sum "exsel_register_reads" counters in
  let writes = count_sum "exsel_register_writes" counters in
  Alcotest.(check int) "reads match reg_stats"
    (List.fold_left (fun a s -> a + s.H.rs_reads) 0 r.H.reg_stats)
    reads;
  Alcotest.(check int) "writes match reg_stats"
    (List.fold_left (fun a s -> a + s.H.rs_writes) 0 r.H.reg_stats)
    writes;
  if reads + writes = 0 then Alcotest.fail "no register traffic observed"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "native"
    [
      ( "claims",
        [
          Alcotest.test_case "clean log accepted" `Quick test_claims_ok;
          Alcotest.test_case "exclusiveness" `Quick test_claims_exclusiveness;
          Alcotest.test_case "name bound" `Quick test_claims_name_bound;
          Alcotest.test_case "completion" `Quick test_claims_completion;
          Alcotest.test_case "termination" `Quick test_claims_termination;
          Alcotest.test_case "steps budget optional" `Quick
            test_claims_steps_budget_optional;
        ] );
      (* before any run parks helper domains: construction allocates
         heavily, and every parked helper takes part in each minor
         collection, which the small-minor-heap rerun multiplies *)
      ("adapters", [ Alcotest.test_case "every adapter" `Quick test_every_adapter ]);
      ( "engine",
        [
          Alcotest.test_case "domains=1 sequential" `Quick
            test_engine_sequential_deterministic;
          Alcotest.test_case "pool drains" `Quick test_engine_parallel_drains;
          Alcotest.test_case "failure propagates" `Quick
            test_engine_failure_propagates;
          Alcotest.test_case "telemetry" `Quick test_engine_telemetry;
          Alcotest.test_case "telemetry domains=1" `Quick
            test_engine_telemetry_sequential;
          Alcotest.test_case "one-shot" `Quick test_engine_one_shot;
          Alcotest.test_case "helpers reused" `Quick test_engine_reuses_helpers;
          Alcotest.test_case "exactly once" `Quick test_engine_exactly_once;
          Alcotest.test_case "lifecycle" `Quick test_engine_lifecycle;
        ] );
      ( "backend",
        [
          Alcotest.test_case "registers" `Quick test_backend_registers;
          Alcotest.test_case "register names" `Quick
            test_backend_register_names;
          Alcotest.test_case "probe counts" `Quick test_probe_counts;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "ma" `Quick test_cross_validate_ma;
          Alcotest.test_case "efficient" `Quick test_cross_validate_efficient;
          Alcotest.test_case "adaptive" `Quick test_cross_validate_adaptive;
        ] );
      ( "harness",
        [
          Alcotest.test_case "ns_to_int clamp" `Quick test_ns_to_int_clamp;
          Alcotest.test_case "warmup" `Quick test_harness_warmup;
          Alcotest.test_case "probe" `Quick test_harness_probe;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "observe" `Quick test_observe_records;
          Alcotest.test_case "observe probed registers" `Quick
            test_observe_probe_registers;
        ] );
    ]
