(* Model-checking tests: exhaustive schedule exploration of the paper's
   primitives on small instances.  Where the rest of the suite samples
   hundreds of random schedules, these tests check EVERY schedule (and
   every single-crash variant) of a bounded configuration. *)

open Exsel_sim
module R = Exsel_renaming
module Adapter = Exsel_conformance.Adapter
module Runner = Exsel_conformance.Runner

(* An adapter's instance (seed 1, exact steps budget) with its claim
   check, in the explorer's init/check shape: the same instance the
   conformance campaigns, [exsel explore] and native domains run. *)
let adapter_instance id k =
  match Adapter.find id with
  | Some a -> Runner.explorable (a.Adapter.make ~seed:1 ~k ~steps_multiple:1.0)
  | None -> Alcotest.failf "no adapter %S" id

let no_failure label (o : Explore.outcome) =
  (match o.Explore.failure with
  | Some (msg, sched) ->
      Alcotest.failf "%s: %s via [%s]" label msg
        (String.concat "; "
           (List.map (Format.asprintf "%a" Explore.pp_choice) sched))
  | None -> ());
  Alcotest.(check bool) (label ^ ": not truncated") false o.Explore.truncated;
  Alcotest.(check bool) (label ^ ": explored something") true (o.Explore.paths > 0)

(* --- Compete-For-Register: Lemma 1, exhaustively --- *)

let test_compete_exhaustive_two () =
  let init, check = adapter_instance "compete" 2 in
  let o = Explore.run ~init ~check () in
  no_failure "compete x2" o;
  (* both interleavings counts: paths = C(ops) — just sanity-check scale *)
  Alcotest.(check bool) "nontrivial path count" true (o.Explore.paths >= 10)

let test_compete_exhaustive_three () =
  let init, check = adapter_instance "compete" 3 in
  no_failure "compete x3" (Explore.run ~init ~check ())

let test_compete_exhaustive_with_crash () =
  let init, check = adapter_instance "compete" 2 in
  no_failure "compete x2 +crash" (Explore.run ~max_crashes:1 ~init ~check ())

let test_compete_solo_win_all_schedules_of_two_with_crash () =
  (* wait-freedom facet of Lemma 1: if the other contender crashes before
     touching HR, the survivor must win — checked on all such schedules *)
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let c = R.Compete.create mem ~name:"c" in
    let wins = Array.make 2 false in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             wins.(i) <- R.Compete.compete c ~me:i))
    done;
    ((wins, c), rt)
  in
  let check (wins, c) rt =
    (* exclusiveness always *)
    let winners = Array.to_list wins |> List.filter Fun.id |> List.length in
    if winners > 1 then Error "two winners"
    else
      (* solo guarantee: if p1 crashed with zero steps, p0 must have won *)
      let procs = Runtime.procs rt in
      let p1 = List.nth procs 1 in
      ignore c;
      if
        Runtime.status p1 = Runtime.Crashed
        && Runtime.steps p1 = 0
        && Runtime.status (List.nth procs 0) = Runtime.Done
        && not wins.(0)
      then Error "effectively-solo contender lost"
      else Ok ()
  in
  no_failure "compete solo facet" (Explore.run ~max_crashes:1 ~init ~check ())

(* --- Splitter: exhaustive splitter laws --- *)

let splitter_init contenders () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let s = R.Splitter.create mem ~name:"s" in
  let outs = Array.make contenders None in
  for i = 0 to contenders - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           outs.(i) <- Some (R.Splitter.enter s ~me:i)))
  done;
  (outs, rt)

let splitter_check outs rt =
  let finished =
    List.filter (fun p -> Runtime.status p = Runtime.Done) (Runtime.procs rt)
  in
  let outcomes =
    List.filter_map (fun p -> outs.(Runtime.pid p)) finished
  in
  let count o = List.length (List.filter (fun x -> x = o) outcomes) in
  if count R.Splitter.Stop > 1 then Error "two processes stopped"
  else if
    (* among processes that finished (not crashed): not all right, not all
       down, when at least one finished *)
    outcomes <> []
    && count R.Splitter.Right = List.length outcomes
    && List.length outcomes = List.length (Runtime.procs rt)
  then Error "all went right"
  else if
    outcomes <> []
    && count R.Splitter.Down = List.length outcomes
    && List.length outcomes = List.length (Runtime.procs rt)
  then Error "all went down"
  else Ok ()

let test_splitter_exhaustive_two () =
  no_failure "splitter x2" (Explore.run ~init:(splitter_init 2) ~check:splitter_check ())

let test_splitter_exhaustive_three () =
  no_failure "splitter x3" (Explore.run ~init:(splitter_init 3) ~check:splitter_check ())

let test_splitter_exhaustive_two_with_crash () =
  no_failure "splitter x2 +crash"
    (Explore.run ~max_crashes:1 ~init:(splitter_init 2) ~check:splitter_check ())

(* --- Two-splitter MA fragment: exclusive names, exhaustively --- *)

let test_ma_grid_exhaustive_two () =
  let init, check = adapter_instance "ma" 2 in
  no_failure "ma 2x2 grid" (Explore.run ~init ~check ())

(* --- Snapshot: scan validity on a tiny instance, exhaustively --- *)

let test_snapshot_exhaustive_tiny () =
  let module Snapshot = Exsel_snapshot.Snapshot in
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let snap = Snapshot.create mem ~name:"w" ~n:2 ~init:0 in
    let view = ref None in
    ignore
      (Runtime.spawn rt ~name:"updater" (fun () ->
           Snapshot.update snap ~me:1 5;
           Snapshot.update snap ~me:1 6));
    ignore
      (Runtime.spawn rt ~name:"scanner" (fun () -> view := Some (Snapshot.scan snap ~me:0)));
    (view, rt)
  in
  let check view rt =
    let scanner =
      List.find (fun p -> Runtime.proc_name p = "scanner") (Runtime.procs rt)
    in
    match (!view, Runtime.status scanner) with
    | None, Runtime.Done -> Error "scanner done without a view"
    | None, _ -> Ok ()
    | Some v, _ ->
        (* component 0 never written: must be 0; component 1 only ever 0,
           5 or 6, and monotone with respect to nothing else here *)
        if v.(0) <> 0 then Error "phantom value in component 0"
        else if v.(1) <> 0 && v.(1) <> 5 && v.(1) <> 6 then
          Error "phantom value in component 1"
        else Ok ()
  in
  let o = Explore.run ~max_paths:2_000_000 ~init ~check () in
  no_failure "snapshot tiny" o

(* --- Immediate snapshot: the three properties, exhaustively --- *)

let test_is_exhaustive_two () =
  let module IS = Exsel_snapshot.Immediate_snapshot in
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let is = IS.create mem ~name:"is" ~n:2 in
    let views = Array.make 2 None in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             views.(i) <- Some (IS.access is ~me:i (10 + i))))
    done;
    (views, rt)
  in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let check views _rt =
    match (views.(0), views.(1)) with
    | Some v0, Some v1 ->
        if not (List.mem_assoc 0 v0 && List.mem_assoc 1 v1) then
          Error "self-inclusion violated"
        else if not (subset v0 v1 || subset v1 v0) then Error "containment violated"
        else if List.mem_assoc 1 v0 && not (subset v1 v0) then
          Error "immediacy violated (0 sees 1)"
        else if List.mem_assoc 0 v1 && not (subset v0 v1) then
          Error "immediacy violated (1 sees 0)"
        else Ok ()
    | _ -> Error "a participant got no view"
  in
  let o = Explore.run ~reduction:`Sleep_sets ~max_paths:500_000 ~init ~check () in
  no_failure "immediate snapshot x2" o

let test_is_rename_exhaustive_two () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let ir = R.Is_rename.create mem ~name:"ir" ~n:2 in
    let names = Array.make 2 (-1) in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- R.Is_rename.rename ir ~slot:i))
    done;
    (names, rt)
  in
  let check names _rt =
    if names.(0) >= 0 && names.(0) = names.(1) then Error "duplicate IS names"
    else if names.(0) >= 3 || names.(1) >= 3 then Error "name beyond k(k+1)/2"
    else Ok ()
  in
  no_failure "is-rename x2" (Explore.run ~reduction:`Sleep_sets ~init ~check ())

(* --- Chain rename: exclusiveness across the chain, exhaustively --- *)

let test_chain_exhaustive () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let c = R.Chain_rename.create mem ~name:"ch" ~m:3 in
    let names = Array.make 2 None in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- R.Chain_rename.rename c ~me:i))
    done;
    (names, rt)
  in
  let check names _rt =
    match (names.(0), names.(1)) with
    | Some a, Some b when a = b -> Error "duplicate chain name"
    | (Some _ | None), (Some _ | None) -> Ok ()
  in
  no_failure "chain x2" (Explore.run ~max_paths:2_000_000 ~init ~check ())

(* --- Equivalence with the seed engine ---

   The original explorer re-instantiated the runtime and replayed the full
   prefix at every DFS node.  [reference_run] reproduces that engine
   verbatim (modulo using the public API); the rewritten [Explore.run]
   must report identical paths/states counts and the same first
   counterexample on every instance. *)

(* Returns (paths, states, truncated, failure) — the seed engine predates
   the stats/forensics fields, so the comparison is on the core facts. *)
let reference_run ?(max_crashes = 0) ?(max_paths = 1_000_000) ~init ~check () =
  let paths = ref 0 in
  let states = ref 0 in
  let exception Done of (int * int * bool * (string * Explore.choice list) option) in
  let apply rt = function
    | Explore.Step pid -> Runtime.commit rt (Runtime.proc_by_pid rt pid)
    | Explore.Crash pid -> Runtime.crash rt (Runtime.proc_by_pid rt pid)
  in
  let finish_path ctx rt prefix =
    incr paths;
    (match check ctx rt with
    | Ok () -> ()
    | Error msg -> raise (Done (!paths, !states, false, Some (msg, prefix))));
    if !paths >= max_paths then raise (Done (!paths, !states, true, None))
  in
  let rec explore_full prefix crashes =
    let ctx, rt = init () in
    List.iter (apply rt) prefix;
    match Runtime.runnable rt with
    | [] -> finish_path ctx rt prefix
    | runnable ->
        let pids = List.map Runtime.pid runnable in
        List.iter
          (fun pid ->
            incr states;
            explore_full (prefix @ [ Explore.Step pid ]) crashes)
          pids;
        if crashes < max_crashes then
          List.iter
            (fun pid ->
              incr states;
              explore_full (prefix @ [ Explore.Crash pid ]) (crashes + 1))
            pids
  in
  try
    explore_full [] 0;
    (!paths, !states, false, None)
  with Done o -> o

let check_equivalent ?(max_crashes = 0) ~label ~init ~check () =
  let seed_paths, seed_states, seed_truncated, seed_failure =
    reference_run ~max_crashes ~init ~check ()
  in
  let rewritten = Explore.run ~max_crashes ~init ~check () in
  Alcotest.(check int) (label ^ ": identical paths") seed_paths rewritten.Explore.paths;
  Alcotest.(check int)
    (label ^ ": identical states") seed_states rewritten.Explore.states;
  Alcotest.(check bool)
    (label ^ ": identical truncation") seed_truncated rewritten.Explore.truncated;
  let show = function
    | None -> "ok"
    | Some (msg, sched) ->
        msg ^ " via ["
        ^ String.concat "; " (List.map (Format.asprintf "%a" Explore.pp_choice) sched)
        ^ "]"
  in
  Alcotest.(check string)
    (label ^ ": identical first counterexample")
    (show seed_failure)
    (show rewritten.Explore.failure)

let test_equiv_compete_three () =
  let init, check = adapter_instance "compete" 3 in
  check_equivalent ~label:"compete x3" ~init ~check ()

let test_equiv_splitter_two () =
  check_equivalent ~label:"splitter x2" ~init:(splitter_init 2) ~check:splitter_check ()

let test_equiv_splitter_three () =
  check_equivalent ~label:"splitter x3" ~init:(splitter_init 3) ~check:splitter_check ()

let test_equiv_crash_facet () =
  (* the crash-facet instance: compete x2 under single-crash decisions,
     so the counterexample machinery is exercised under [Crash] choices
     too *)
  let init, check = adapter_instance "compete" 2 in
  check_equivalent ~max_crashes:1 ~label:"compete x2 +crash" ~init ~check ()

let test_equiv_planted_bug_schedule () =
  (* both engines must report the very same first failing schedule *)
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let check r _rt = if Register.peek r <> 2 then Error "lost update" else Ok () in
  check_equivalent ~label:"planted bug" ~init ~check ()

(* --- State-hash memoization --- *)

let test_state_hash_prunes_and_preserves_states () =
  (* same distinct-quiescent-state set as the exact engine, fewer or equal
     paths: dedup only skips subtrees already rooted at a visited state *)
  let init = splitter_init 2 in
  let fingerprint outs _rt =
    String.concat ","
      (Array.to_list
         (Array.map
            (function
              | Some R.Splitter.Stop -> "S"
              | Some R.Splitter.Right -> "R"
              | Some R.Splitter.Down -> "D"
              | None -> "-")
            outs))
  in
  let run_mode reduction =
    let seen = Hashtbl.create 64 in
    let o =
      Explore.run ~reduction ~init
        ~check:(fun ctx rt ->
          Hashtbl.replace seen (fingerprint ctx rt) ();
          Ok ())
        ()
    in
    (o, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))
  in
  let full, full_states = run_mode `None in
  let memo, memo_states = run_mode `State_hash in
  Alcotest.(check bool) "no failures" true
    (full.Explore.failure = None && memo.Explore.failure = None);
  Alcotest.(check bool) "memoization explores fewer or equal paths" true
    (memo.Explore.paths <= full.Explore.paths);
  Alcotest.(check bool) "memoization actually prunes here" true
    (memo.Explore.paths < full.Explore.paths);
  Alcotest.(check (list string)) "same quiescent states" full_states memo_states

let test_state_hash_still_finds_violations () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let check r _rt = if Register.peek r <> 2 then Error "lost update" else Ok () in
  let o = Explore.run ~reduction:`State_hash ~init ~check () in
  Alcotest.(check bool) "memoized exploration finds the race" true
    (match o.Explore.failure with Some ("lost update", _) -> true | Some _ | None -> false)

let test_state_hash_with_crashes () =
  (* crash budget is part of the memo key, so exclusiveness still holds
     over every single-crash schedule *)
  let init, check = adapter_instance "compete" 2 in
  let o = Explore.run ~reduction:`State_hash ~max_crashes:1 ~init ~check () in
  no_failure "state-hash +crash" o

(* --- Explore plumbing --- *)

let test_explore_counts_paths () =
  (* two independent single-op processes: exactly 2 interleavings *)
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    for i = 0 to 1 do
      let r = Register.create mem ~name:(string_of_int i) 0 in
      ignore (Runtime.spawn rt ~name:(string_of_int i) (fun () -> Runtime.write r 1))
    done;
    ((), rt)
  in
  let o = Explore.run ~init ~check:(fun () _ -> Ok ()) () in
  Alcotest.(check int) "2 paths" 2 o.Explore.paths

let test_explore_finds_planted_bug () =
  (* a racy increment: exploration must find the lost-update schedule *)
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let check r _rt = if Register.peek r <> 2 then Error "lost update" else Ok () in
  let o = Explore.run ~init ~check () in
  match o.Explore.failure with
  | Some ("lost update", schedule) ->
      Alcotest.(check bool) "non-empty schedule" true (schedule <> [])
  | Some (msg, _) -> Alcotest.failf "unexpected failure %s" msg
  | None -> Alcotest.fail "exploration missed the planted race"

let test_explore_replay_reproduces () =
  let make () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let o =
    Explore.run ~init:make ~check:(fun r _ -> if Register.peek r <> 2 then Error "x" else Ok ()) ()
  in
  match o.Explore.failure with
  | None -> Alcotest.fail "expected failure"
  | Some (_, schedule) ->
      let r, rt = make () in
      Explore.replay rt schedule;
      Alcotest.(check bool) "replay reproduces the bad state" true (Register.peek r <> 2)

(* --- Sleep-set reduction: soundness cross-validation --- *)

(* Run an instance in both modes, collecting the set of distinct quiescent
   states (via a caller-supplied fingerprint); the reduced run must reach
   exactly the same state set with no more paths. *)
let cross_validate ~label ~init ~fingerprint =
  let run_mode reduction =
    let seen = Hashtbl.create 64 in
    let o =
      Explore.run ~reduction ~init
        ~check:(fun ctx rt ->
          Hashtbl.replace seen (fingerprint ctx rt) ();
          Ok ())
        ()
    in
    let states = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    (o, List.sort compare states)
  in
  let full, full_states = run_mode `None in
  let reduced, reduced_states = run_mode `Sleep_sets in
  Alcotest.(check bool) (label ^ ": no failures") true
    (full.Explore.failure = None && reduced.Explore.failure = None);
  Alcotest.(check bool)
    (label ^ ": reduction explores fewer or equal paths")
    true
    (reduced.Explore.paths <= full.Explore.paths);
  Alcotest.(check (list string)) (label ^ ": same quiescent states") full_states
    reduced_states;
  (full.Explore.paths, reduced.Explore.paths)

let test_por_cross_validate_disjoint_writers () =
  (* fully independent processes: reduction collapses to a single path *)
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let regs =
      Array.init 3 (fun i -> Register.create mem ~name:(string_of_int i) 0)
    in
    for i = 0 to 2 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             Runtime.write regs.(i) (i + 1);
             Runtime.write regs.(i) (i + 10)))
    done;
    (regs, rt)
  in
  let fingerprint regs _rt =
    String.concat "," (Array.to_list (Array.map (fun r -> string_of_int (Register.peek r)) regs))
  in
  let full, reduced = cross_validate ~label:"disjoint" ~init ~fingerprint in
  Alcotest.(check int) "full explores 90 interleavings" 90 full;
  Alcotest.(check int) "reduction collapses to 1" 1 reduced

let test_por_cross_validate_racy_counter () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let fingerprint r _rt = string_of_int (Register.peek r) in
  let _full, _reduced = cross_validate ~label:"racy" ~init ~fingerprint in
  ()

let test_por_cross_validate_compete () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let c = R.Compete.create mem ~name:"c" in
    let wins = Array.make 2 false in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             wins.(i) <- R.Compete.compete c ~me:i))
    done;
    (wins, rt)
  in
  let fingerprint wins _rt =
    Printf.sprintf "%b%b" wins.(0) wins.(1)
  in
  let full, reduced = cross_validate ~label:"compete" ~init ~fingerprint in
  Alcotest.(check bool) "meaningful reduction" true (reduced < full)

let test_por_cross_validate_splitter_three () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let s = R.Splitter.create mem ~name:"s" in
    let outs = Array.make 3 None in
    for i = 0 to 2 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             outs.(i) <- Some (R.Splitter.enter s ~me:i)))
    done;
    (outs, rt)
  in
  let fingerprint outs _rt =
    String.concat ","
      (Array.to_list
         (Array.map
            (function
              | Some R.Splitter.Stop -> "S"
              | Some R.Splitter.Right -> "R"
              | Some R.Splitter.Down -> "D"
              | None -> "-")
            outs))
  in
  ignore (cross_validate ~label:"splitter3" ~init ~fingerprint)

let test_por_still_finds_violations () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let r = Register.create mem ~name:"r" 0 in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             let v = Runtime.read r in
             Runtime.write r (v + 1)))
    done;
    (r, rt)
  in
  let check r _rt = if Register.peek r <> 2 then Error "lost update" else Ok () in
  let o = Explore.run ~reduction:`Sleep_sets ~init ~check () in
  Alcotest.(check bool) "reduced exploration finds the race" true
    (match o.Explore.failure with Some ("lost update", _) -> true | Some _ | None -> false)

let test_por_rejects_crashes () =
  Alcotest.(check bool) "invalid combination rejected" true
    (try
       ignore
         (Explore.run ~reduction:`Sleep_sets ~max_crashes:1
            ~init:(fun () ->
              let mem = Memory.create () in
              ((), Runtime.create mem))
            ~check:(fun () _ -> Ok ())
            ());
       false
     with Invalid_argument _ -> true)

let test_independence_relation () =
  Alcotest.(check bool) "reads commute" true
    (Explore.independent (Runtime.Read 1) (Runtime.Read 1));
  Alcotest.(check bool) "write/read same reg conflict" false
    (Explore.independent (Runtime.Write 1) (Runtime.Read 1));
  Alcotest.(check bool) "writes same reg conflict" false
    (Explore.independent (Runtime.Write 1) (Runtime.Write 1));
  Alcotest.(check bool) "different regs commute" true
    (Explore.independent (Runtime.Write 1) (Runtime.Write 2))

(* --- Execution forensics: failure traces, shrinking, effort stats --- *)

let race_init n () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let r = Register.create mem ~name:"ctr" 0 in
  Register.set_printer r string_of_int;
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "inc%d" i) (fun () ->
           let v = Runtime.read r in
           Runtime.write r (v + 1)))
  done;
  (r, rt)

let race_check n r _rt =
  if Register.peek r = n then Ok () else Error "lost update"

(* replaying [sched] on a fresh instance must reach quiescence and still
   violate the invariant *)
let violates ~init ~check sched =
  let ctx, rt = init () in
  Explore.replay rt sched;
  Runtime.all_quiet rt
  && match check ctx rt with Error _ -> true | Ok () -> false

let test_failure_trace_roundtrip () =
  let init = race_init 2 and check = race_check 2 in
  let o = Explore.run ~init ~check () in
  match o.Explore.failure with
  | None -> Alcotest.fail "expected the racy counter to violate"
  | Some (_msg, sched) ->
      Alcotest.(check bool) "failure trace attached" true
        (o.Explore.failure_trace <> []);
      (* replay-with-trace against a fresh instance reproduces the
         recorded value trace bit-for-bit *)
      let _r, rt = init () in
      let tr = Trace.attach rt in
      Explore.replay rt sched;
      Alcotest.(check bool) "replay reproduces the trace" true
        (Trace.events tr = o.Explore.failure_trace);
      (* the lost update is visible in the values: both increments read 0
         and both write 1 *)
      let writes =
        List.filter_map
          (fun e ->
            match e.Trace.kind with
            | Trace.Write { value; _ } -> Some value
            | _ -> None)
          o.Explore.failure_trace
      in
      Alcotest.(check (list string)) "both writes store 1" [ "1"; "1" ] writes

let test_failure_trace_lifecycle () =
  let init = race_init 2 and check = race_check 2 in
  let o = Explore.run ~init ~check () in
  let count k =
    List.length (List.filter (fun e -> e.Trace.kind = k) o.Explore.failure_trace)
  in
  Alcotest.(check int) "one spawn per process" 2 (count Trace.Spawn);
  Alcotest.(check int) "both processes finish" 2 (count Trace.Done)

let test_crash_counterexample_replay () =
  let init = race_init 2 and check = race_check 2 in
  let o = Explore.run ~max_crashes:1 ~init ~check () in
  match o.Explore.failure with
  | None -> Alcotest.fail "expected a violation under crashes"
  | Some (_msg, sched) ->
      Alcotest.(check bool) "counterexample carries a crash decision" true
        (List.exists (function Explore.Crash _ -> true | Explore.Step _ -> false) sched);
      Alcotest.(check bool) "crash schedule replays to a violation" true
        (violates ~init ~check sched);
      let _r, rt = init () in
      let tr = Trace.attach rt in
      Explore.replay rt sched;
      Alcotest.(check bool) "crash event recorded in trace" true
        (List.exists (fun e -> e.Trace.kind = Trace.Crash) (Trace.events tr));
      Alcotest.(check bool) "replay reproduces the crash trace" true
        (Trace.events tr = o.Explore.failure_trace)

let test_shrink_soundness () =
  let init = race_init 3 and check = race_check 3 in
  let o = Explore.run ~max_crashes:1 ~init ~check () in
  match o.Explore.failure with
  | None -> Alcotest.fail "expected a violation"
  | Some (_msg, sched) ->
      let s1 = Explore.shrink ~init ~check sched in
      Alcotest.(check bool) "shrunk schedule still violates" true
        (violates ~init ~check s1);
      Alcotest.(check bool) "shrunk is no longer than the original" true
        (List.length s1 <= List.length sched);
      let s2 = Explore.shrink ~init ~check s1 in
      Alcotest.(check bool) "shrink is idempotent" true (s1 = s2)

let test_shrink_crash_strictly_smaller () =
  (* dropping a crashed process's earlier steps makes it crash sooner, so
     crash-carrying counterexamples shrink strictly *)
  let init = race_init 2 and check = race_check 2 in
  let o = Explore.run ~max_crashes:1 ~init ~check () in
  match o.Explore.failure with
  | None -> Alcotest.fail "expected a violation"
  | Some (_msg, sched) ->
      let s = Explore.shrink ~init ~check sched in
      Alcotest.(check bool) "strictly shorter" true (List.length s < List.length sched);
      Alcotest.(check bool) "still violates" true (violates ~init ~check s)

let test_shrink_rejects_passing_schedule () =
  let init = race_init 2 and check = race_check 2 in
  (* the round-robin interleaving is correct: read0 write0 read1 write1 *)
  let passing = [ Explore.Step 0; Explore.Step 0; Explore.Step 1; Explore.Step 1 ] in
  Alcotest.(check bool) "passing schedule rejected" true
    (try
       ignore (Explore.shrink ~init ~check passing);
       false
     with Invalid_argument _ -> true)

let test_stats_sanity () =
  let init, check = adapter_instance "compete" 3 in
  let o = Explore.run ~init ~check () in
  let st = o.Explore.stats in
  Alcotest.(check int) "depth histogram sums to paths" o.Explore.paths
    (List.fold_left (fun a (_, c) -> a + c) 0 st.Explore.depth_histogram);
  Alcotest.(check bool) "max depth positive" true (st.Explore.max_depth > 0);
  Alcotest.(check bool) "histogram depths bounded by max" true
    (List.for_all (fun (d, _) -> d <= st.Explore.max_depth) st.Explore.depth_histogram);
  (* unreduced, untruncated: every path but the first starts from a popped
     frame, and each pop is exactly one replay *)
  Alcotest.(check int) "replays = paths - 1" (o.Explore.paths - 1) st.Explore.replays;
  Alcotest.(check int) "no sleep prunes without reduction" 0 st.Explore.sleep_prunes;
  Alcotest.(check int) "no hash traffic without memoization" 0
    (st.Explore.hash_hits + st.Explore.hash_misses)

let test_stats_reductions () =
  let init, check = adapter_instance "compete" 3 in
  let memo = Explore.run ~reduction:`State_hash ~init ~check () in
  Alcotest.(check bool) "memo hits recorded" true
    (memo.Explore.stats.Explore.hash_hits > 0);
  Alcotest.(check bool) "memo misses recorded" true
    (memo.Explore.stats.Explore.hash_misses > 0);
  let slept =
    Explore.run ~reduction:`Sleep_sets ~init:(splitter_init 3) ~check:splitter_check ()
  in
  Alcotest.(check bool) "sleep prunes recorded" true
    (slept.Explore.stats.Explore.sleep_prunes > 0)

let test_explore_truncation () =
  let init () =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    for i = 0 to 2 do
      let r = Register.create mem ~name:(string_of_int i) 0 in
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             Runtime.write r 1;
             Runtime.write r 2))
    done;
    ((), rt)
  in
  let o = Explore.run ~max_paths:5 ~init ~check:(fun () _ -> Ok ()) () in
  Alcotest.(check bool) "truncated" true o.Explore.truncated;
  Alcotest.(check int) "stopped at limit" 5 o.Explore.paths

let () =
  Alcotest.run "exsel_explore"
    [
      ( "compete",
        [
          Alcotest.test_case "exhaustive x2" `Quick test_compete_exhaustive_two;
          Alcotest.test_case "exhaustive x3" `Slow test_compete_exhaustive_three;
          Alcotest.test_case "exhaustive x2 +crash" `Quick test_compete_exhaustive_with_crash;
          Alcotest.test_case "solo facet +crash" `Quick
            test_compete_solo_win_all_schedules_of_two_with_crash;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "exhaustive x2" `Quick test_splitter_exhaustive_two;
          Alcotest.test_case "exhaustive x3" `Slow test_splitter_exhaustive_three;
          Alcotest.test_case "exhaustive x2 +crash" `Quick test_splitter_exhaustive_two_with_crash;
        ] );
      ( "composites",
        [
          Alcotest.test_case "ma grid x2" `Quick test_ma_grid_exhaustive_two;
          Alcotest.test_case "snapshot tiny" `Slow test_snapshot_exhaustive_tiny;
          Alcotest.test_case "chain x2" `Slow test_chain_exhaustive;
          Alcotest.test_case "immediate snapshot x2" `Quick test_is_exhaustive_two;
          Alcotest.test_case "is-rename x2" `Quick test_is_rename_exhaustive_two;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "disjoint writers collapse" `Quick test_por_cross_validate_disjoint_writers;
          Alcotest.test_case "racy counter cross-validated" `Quick test_por_cross_validate_racy_counter;
          Alcotest.test_case "compete cross-validated" `Quick test_por_cross_validate_compete;
          Alcotest.test_case "splitter x3 cross-validated" `Slow test_por_cross_validate_splitter_three;
          Alcotest.test_case "violations still found" `Quick test_por_still_finds_violations;
          Alcotest.test_case "crashes rejected" `Quick test_por_rejects_crashes;
          Alcotest.test_case "independence relation" `Quick test_independence_relation;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "compete x3 vs seed engine" `Quick test_equiv_compete_three;
          Alcotest.test_case "splitter x2 vs seed engine" `Quick test_equiv_splitter_two;
          Alcotest.test_case "splitter x3 vs seed engine" `Slow test_equiv_splitter_three;
          Alcotest.test_case "crash facet vs seed engine" `Quick test_equiv_crash_facet;
          Alcotest.test_case "planted-bug schedule identical" `Quick
            test_equiv_planted_bug_schedule;
        ] );
      ( "state-hash",
        [
          Alcotest.test_case "prunes, same quiescent states" `Quick
            test_state_hash_prunes_and_preserves_states;
          Alcotest.test_case "violations still found" `Quick
            test_state_hash_still_finds_violations;
          Alcotest.test_case "with crash decisions" `Quick test_state_hash_with_crashes;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "counts paths" `Quick test_explore_counts_paths;
          Alcotest.test_case "finds planted bug" `Quick test_explore_finds_planted_bug;
          Alcotest.test_case "replay reproduces" `Quick test_explore_replay_reproduces;
          Alcotest.test_case "truncation" `Quick test_explore_truncation;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "failure trace round-trips" `Quick
            test_failure_trace_roundtrip;
          Alcotest.test_case "failure trace lifecycle" `Quick
            test_failure_trace_lifecycle;
          Alcotest.test_case "crash counterexample replays" `Quick
            test_crash_counterexample_replay;
          Alcotest.test_case "shrink sound and idempotent" `Quick
            test_shrink_soundness;
          Alcotest.test_case "shrink strictly under crashes" `Quick
            test_shrink_crash_strictly_smaller;
          Alcotest.test_case "shrink rejects passing schedule" `Quick
            test_shrink_rejects_passing_schedule;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "stats under reductions" `Quick test_stats_reductions;
        ] );
    ]
