(* Domain-parallelism tests (DESIGN.md §10).

   Three layers:
   - Pool: order preservation and deterministic error propagation of the
     domain pool, however the domains' completion order falls out;
   - determinism: `Campaign.run ~jobs` and `Explore.run ~jobs` must be
     field-for-field identical to the sequential run — counters, first
     violation, shrunk counterexample, replayed trace included;
   - domain-local ambient state: the regressions the DLS migration fixed
     (span cross-attribution between live runtimes, stale observations
     surviving an aborted report run). *)

open Exsel_sim
module R = Exsel_renaming
module Span = Exsel_obs.Span
module E = Exsel_harness.Experiments
module Campaign = Exsel_conformance.Campaign
module Adapter = Exsel_conformance.Adapter
module Runner = Exsel_conformance.Runner
module Regime = Exsel_conformance.Regime
module Json = Exsel_obs.Json

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let adapter id =
  match Adapter.find id with
  | Some a -> a
  | None -> Alcotest.failf "adapter %s missing" id

let regime id =
  match Regime.find id with
  | Some r -> r
  | None -> Alcotest.failf "regime %s missing" id

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

(* deterministic busywork so items finish in an order unrelated to their
   position: big inputs complete late on one domain, early on another *)
let slow_double x =
  let acc = ref 0 in
  for i = 1 to (x mod 17) * 1_000 do
    acc := (!acc + i) mod 7919
  done;
  ignore !acc;
  2 * x

let test_pool_preserves_order () =
  let items = List.init 50 (fun i -> 37 * i mod 101) in
  let expected = List.map slow_double items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs slow_double items))
    [ 1; 2; 4; 8 ]

let test_pool_empty_and_oversubscribed () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 slow_double []);
  Alcotest.(check (list int)) "more jobs than items" [ 2; 4 ]
    (Pool.map ~jobs:16 slow_double [ 1; 2 ])

let test_pool_raises_earliest_failure () =
  (* two items raise; whichever domain finishes first, the exception of
     the earliest *input position* must win *)
  let f i = if i = 3 || i = 7 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f (List.init 10 Fun.id) with
      | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: earliest failure" jobs)
            "3" msg)
    [ 1; 2; 4 ]

let prop_pool_order_any_completion_order =
  QCheck.Test.make
    ~name:"Pool.map = List.map whatever the domain completion order" ~count:25
    QCheck.(pair (small_list (int_range 0 200)) (int_range 1 6))
    (fun (items, jobs) -> Pool.map ~jobs slow_double items = List.map slow_double items)

(* ------------------------------------------------------------------ *)
(* --seeds parsing                                                     *)
(* ------------------------------------------------------------------ *)

let test_seeds_count_and_list () =
  (match Campaign.seeds_of_string "3" with
  | Ok s -> Alcotest.(check (list int)) "count" [ 1; 2; 3 ] s
  | Error e -> Alcotest.failf "count rejected: %s" e);
  match Campaign.seeds_of_string " 3, 7,11 " with
  | Ok s -> Alcotest.(check (list int)) "list" [ 3; 7; 11 ] s
  | Error e -> Alcotest.failf "list rejected: %s" e

let check_rejects label spec needle =
  match Campaign.seeds_of_string spec with
  | Ok _ -> Alcotest.failf "%s: %S accepted" label spec
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S (got %S)" label spec needle msg)
        true (contains msg needle)

let test_seeds_rejections () =
  check_rejects "zero count" "0" "0";
  check_rejects "negative count" "-4" "-4";
  check_rejects "negative seed" "3,-7,11" "-7";
  check_rejects "duplicate seed" "3,7,3" "3";
  check_rejects "garbage" "3,x,7" "x";
  check_rejects "trailing comma" "3,7," ""

(* The two accepted forms read back exactly, and every malformed spec is
   an [Error], never an exception. *)
let spec_of seeds = String.concat "," (List.map string_of_int seeds)

let prop_seed_list_round_trips =
  QCheck.Test.make ~name:"a list of distinct seeds round-trips" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 12) (int_range 0 1_000_000))
    (fun seeds ->
      QCheck.assume (List.length (List.sort_uniq compare seeds) = List.length seeds);
      Campaign.seeds_of_string (spec_of seeds) = Ok seeds)

let prop_seed_count =
  QCheck.Test.make ~name:"a positive count n gives seeds 1..n" ~count:300
    QCheck.(int_range 1 10_000)
    (fun n -> Campaign.seeds_of_string (string_of_int n) = Ok (List.init n (fun i -> i + 1)))

(* [x] put into [l] before its [at mod (length l + 1)]-th element. *)
let insert_at at x l =
  let i = at mod (List.length l + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

let malformed_spec =
  let open QCheck.Gen in
  let seeds = list_size (int_range 1 6) (int_range 0 1000) in
  let among bad =
    map3 (fun s at bad -> String.concat "," (insert_at at bad (List.map string_of_int s))) seeds nat bad
  in
  let duplicate =
    seeds >>= fun s ->
    map2 (fun i at -> spec_of (insert_at at (List.nth s (i mod List.length s)) s)) nat nat
  in
  QCheck.make ~print:Fun.id
    (oneof
       [
         duplicate;
         among (map string_of_int (int_range (-1000) (-1)));
         among (oneofl [ ""; " " ]);
         among (string_size ~gen:(char_range 'g' 'w') (int_range 1 4));
         among (map (Printf.sprintf "%d.5") (int_range 0 9));
         return "0";
       ])

let prop_malformed_seeds_rejected =
  QCheck.Test.make
    ~name:"duplicates, negatives, empty parts, non-integers and a zero count are errors"
    ~count:500 malformed_spec (fun spec ->
      match Campaign.seeds_of_string spec with Ok _ -> false | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Campaign determinism across jobs                                    *)
(* ------------------------------------------------------------------ *)

(* The exsel-conformance/1 document has no timing fields, so rendering
   both reports and comparing the strings checks every field of every
   cell at once — including violation schedules, shrunk counterexamples
   and embedded traces. *)
let campaign_json ~jobs cfg = Json.to_string (Campaign.to_json (Campaign.run ~jobs cfg))

let test_campaign_jobs_identical_honest () =
  let cfg =
    { Campaign.default with Campaign.algos = Adapter.honest; seeds = [ 1 ]; k = 3 }
  in
  let reference = campaign_json ~jobs:1 cfg in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "honest matrix, -j %d = -j 1" jobs)
        true
        (campaign_json ~jobs cfg = reference))
    [ 2; 4 ]

let test_campaign_jobs_identical_violation () =
  (* the negative control: first-violation-per-cell, shrinking and trace
     replay must also be unaffected by sharding *)
  let cfg =
    {
      Campaign.default with
      Campaign.algos = [ adapter "buggy-ma"; adapter "ma" ];
      regimes = [ regime "lockstep"; regime "random" ];
      seeds = [ 1; 2; 3 ];
      k = 4;
    }
  in
  let r1 = Campaign.run ~jobs:1 cfg in
  Alcotest.(check bool) "negative control caught" true (r1.Campaign.r_violations > 0);
  let reference = Json.to_string (Campaign.to_json r1) in
  Alcotest.(check bool)
    "violating matrix, -j 3 = -j 1" true
    (campaign_json ~jobs:3 cfg = reference)

let test_campaign_on_cell_order () =
  let cfg =
    {
      Campaign.default with
      Campaign.algos = [ adapter "ma" ];
      regimes = [ regime "lockstep"; regime "random" ];
      seeds = [ 1 ];
      k = 3;
    }
  in
  let order jobs =
    let seen = ref [] in
    ignore
      (Campaign.run ~jobs
         ~on_cell:(fun c -> seen := (c.Campaign.c_algo, c.Campaign.c_regime) :: !seen)
         cfg);
    List.rev !seen
  in
  Alcotest.(check bool)
    "on_cell fires in matrix order under -j" true
    (order 1 = order 2)

(* ------------------------------------------------------------------ *)
(* Explore determinism across jobs                                     *)
(* ------------------------------------------------------------------ *)

(* The compete adapter's instance and Lemma 1 claim check. *)
let compete k =
  Runner.explorable
    ((adapter "compete").Adapter.make ~seed:1 ~k ~steps_multiple:1.0)

(* A hand-built Compete instance whose context is the per-contender win
   flags, for a check the adapter's claim check cannot express. *)
let compete_wins n () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let c = R.Compete.create mem ~name:"c" in
  let wins = Array.make n false in
  for i = 0 to n - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           wins.(i) <- R.Compete.compete c ~me:i))
  done;
  (wins, rt)

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

let check_outcome_equal label (a : Explore.outcome) (b : Explore.outcome) =
  Alcotest.(check int) (label ^ ": paths") a.Explore.paths b.Explore.paths;
  Alcotest.(check int) (label ^ ": states") a.Explore.states b.Explore.states;
  Alcotest.(check bool) (label ^ ": truncated") a.Explore.truncated b.Explore.truncated;
  Alcotest.(check bool)
    (label ^ ": failure") true
    (a.Explore.failure = b.Explore.failure);
  Alcotest.(check bool)
    (label ^ ": failure trace") true
    (a.Explore.failure_trace = b.Explore.failure_trace);
  Alcotest.(check bool) (label ^ ": stats") true (a.Explore.stats = b.Explore.stats)

let test_explore_jobs_identical_none () =
  let init, check = compete 3 in
  let run jobs = Explore.run ~jobs ~init ~check () in
  let reference = run 1 in
  Alcotest.(check bool) "explored" true (reference.Explore.paths > 100);
  List.iter
    (fun jobs -> check_outcome_equal (Printf.sprintf "none -j %d" jobs) reference (run jobs))
    [ 2; 4 ]

let test_explore_jobs_identical_sleep_sets () =
  let run jobs =
    Explore.run ~jobs ~reduction:`Sleep_sets ~init:(splitter_init 3)
      ~check:(fun () _ -> Ok ()) ()
  in
  check_outcome_equal "sleep_sets -j 3" (run 1) (run 3)

let test_explore_jobs_identical_crashes () =
  let init, check = compete 2 in
  let run jobs = Explore.run ~jobs ~max_crashes:1 ~init ~check () in
  check_outcome_equal "crashes -j 2" (run 1) (run 2)

let test_explore_jobs_identical_truncated () =
  let init, check = compete 3 in
  let run jobs = Explore.run ~jobs ~max_paths:500 ~init ~check () in
  let reference = run 1 in
  Alcotest.(check bool) "budget expires mid-tree" true reference.Explore.truncated;
  List.iter
    (fun jobs ->
      check_outcome_equal (Printf.sprintf "truncated -j %d" jobs) reference (run jobs))
    [ 2; 3 ]

let test_explore_jobs_identical_failure () =
  (* a check that fails on some schedules: the parallel run must report
     the same first failing schedule as the sequential DFS *)
  let check wins rt =
    ignore rt;
    if wins.(1) then Error "contender 1 won" else Ok ()
  in
  let run jobs = Explore.run ~jobs ~init:(compete_wins 2) ~check () in
  let reference = run 1 in
  Alcotest.(check bool) "failure found" true (reference.Explore.failure <> None);
  List.iter
    (fun jobs ->
      check_outcome_equal (Printf.sprintf "failure -j %d" jobs) reference (run jobs))
    [ 2; 4 ]

let prop_explore_jobs_identical =
  let init, check = compete 2 in
  let reference = lazy (Explore.run ~init ~check ()) in
  QCheck.Test.make ~name:"Explore.run ~jobs = sequential for random jobs" ~count:10
    QCheck.(int_range 2 6)
    (fun jobs ->
      let o = Explore.run ~jobs ~init ~check () in
      let r = Lazy.force reference in
      o.Explore.paths = r.Explore.paths
      && o.Explore.states = r.Explore.states
      && o.Explore.stats = r.Explore.stats
      && o.Explore.failure = r.Explore.failure)

(* ------------------------------------------------------------------ *)
(* Span attribution with several live runtimes (regression)            *)
(* ------------------------------------------------------------------ *)

(* Before the sink registry, Span kept one installed sink in a global
   ref: attaching runtime B's sink hijacked runtime A's subsequent span
   records, and detaching B's sink silenced A entirely.  Interleave two
   live runtimes and check each sink saw only its own runtime. *)
let test_span_two_live_runtimes () =
  let mem_a = Memory.create () in
  let rt_a = Runtime.create mem_a in
  let ra = Register.create mem_a ~name:"ra" 0 in
  let sink_a = Span.attach rt_a in
  let pa =
    Runtime.spawn rt_a ~name:"pa" (fun () ->
        Span.wrap "a:phase=1" (fun () ->
            Runtime.write ra 1;
            Runtime.write ra 2))
  in
  let mem_b = Memory.create () in
  let rt_b = Runtime.create mem_b in
  let rb = Register.create mem_b ~name:"rb" 0 in
  let sink_b = Span.attach rt_b in
  let pb =
    Runtime.spawn rt_b ~name:"pb" (fun () ->
        Span.wrap "b:phase=1" (fun () -> Runtime.write rb 1))
  in
  (* interleave the two runtimes; b finishes (and detaches) first *)
  Runtime.commit rt_a pa;
  Runtime.commit rt_b pb;
  Span.detach sink_b;
  Runtime.commit rt_a pa;
  (match Span.per_process sink_a with
  | [ (_, name, [ node ]) ] ->
      Alcotest.(check string) "a: proc" "pa" name;
      Alcotest.(check string) "a: label" "a:phase=1" node.Span.label;
      Alcotest.(check int) "a: steps (none leaked to b)" 2 node.Span.steps;
      Alcotest.(check bool) "a: closed after b detached" true node.Span.complete
  | l -> Alcotest.failf "sink a: expected 1 process, got %d" (List.length l));
  (match Span.per_process sink_b with
  | [ (_, name, [ node ]) ] ->
      Alcotest.(check string) "b: proc" "pb" name;
      Alcotest.(check string) "b: label" "b:phase=1" node.Span.label;
      Alcotest.(check int) "b: steps (none leaked from a)" 1 node.Span.steps
  | l -> Alcotest.failf "sink b: expected 1 process, got %d" (List.length l));
  Span.detach sink_a

let test_span_nested_runtime () =
  (* runtime B lives entirely inside one of runtime A's process bodies —
     the shape Campaign.analyse produces when it replays a counterexample
     while the driving runtime is still live *)
  let mem_a = Memory.create () in
  let rt_a = Runtime.create mem_a in
  let ra = Register.create mem_a ~name:"ra" 0 in
  let sink_a = Span.attach rt_a in
  let inner = ref None in
  let pa =
    Runtime.spawn rt_a ~name:"pa" (fun () ->
        Span.wrap "a:outer" (fun () ->
            Runtime.write ra 1;
            let mem_b = Memory.create () in
            let rt_b = Runtime.create mem_b in
            let rb = Register.create mem_b ~name:"rb" 0 in
            let sink_b = Span.attach rt_b in
            let pb =
              Runtime.spawn rt_b ~name:"pb" (fun () ->
                  Span.wrap "b:inner" (fun () -> Runtime.write rb 7))
            in
            Runtime.commit rt_b pb;
            inner := Some (Span.per_process sink_b);
            Span.detach sink_b;
            Runtime.write ra 2))
  in
  Runtime.commit rt_a pa;
  Runtime.commit rt_a pa;
  (match !inner with
  | Some [ (_, _, [ node ]) ] ->
      Alcotest.(check string) "inner label" "b:inner" node.Span.label;
      Alcotest.(check int) "inner steps" 1 node.Span.steps;
      Alcotest.(check bool) "inner complete" true node.Span.complete
  | Some l -> Alcotest.failf "inner sink: expected 1 process, got %d" (List.length l)
  | None -> Alcotest.fail "inner runtime never ran");
  (match Span.per_process sink_a with
  | [ (_, _, [ node ]) ] ->
      Alcotest.(check string) "outer label" "a:outer" node.Span.label;
      Alcotest.(check int) "outer steps" 2 node.Span.steps;
      Alcotest.(check bool) "outer survived inner detach" true node.Span.complete
  | l -> Alcotest.failf "sink a: expected 1 process, got %d" (List.length l));
  Span.detach sink_a

(* ------------------------------------------------------------------ *)
(* Observation queue cleared on enable (regression)                    *)
(* ------------------------------------------------------------------ *)

let test_observations_cleared_on_enable () =
  (* baseline: how many observations one A1 run queues *)
  E.set_observing true;
  ignore (E.a1_expander_constants ());
  let n = List.length (E.drain_observations ()) in
  Alcotest.(check bool) "A1 produces observations" true (n > 0);
  (* a run whose caller raised before draining leaves the queue full … *)
  E.set_observing true;
  ignore (E.a1_expander_constants ());
  (* … no drain here (the abort); the next enable must discard it *)
  E.set_observing true;
  ignore (E.a1_expander_constants ());
  let n' = List.length (E.drain_observations ()) in
  E.set_observing false;
  Alcotest.(check int) "stale observations discarded on enable" n n'

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_preserves_order;
          Alcotest.test_case "empty & oversubscribed" `Quick
            test_pool_empty_and_oversubscribed;
          Alcotest.test_case "earliest failure wins" `Quick
            test_pool_raises_earliest_failure;
          QCheck_alcotest.to_alcotest prop_pool_order_any_completion_order;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "count & list" `Quick test_seeds_count_and_list;
          Alcotest.test_case "rejections" `Quick test_seeds_rejections;
          QCheck_alcotest.to_alcotest prop_seed_list_round_trips;
          QCheck_alcotest.to_alcotest prop_seed_count;
          QCheck_alcotest.to_alcotest prop_malformed_seeds_rejected;
        ] );
      ( "campaign determinism",
        [
          Alcotest.test_case "honest matrix" `Quick test_campaign_jobs_identical_honest;
          Alcotest.test_case "violating matrix" `Quick
            test_campaign_jobs_identical_violation;
          Alcotest.test_case "on_cell order" `Quick test_campaign_on_cell_order;
        ] );
      ( "explore determinism",
        [
          Alcotest.test_case "no reduction" `Quick test_explore_jobs_identical_none;
          Alcotest.test_case "sleep sets" `Quick test_explore_jobs_identical_sleep_sets;
          Alcotest.test_case "crashes" `Quick test_explore_jobs_identical_crashes;
          Alcotest.test_case "truncation" `Quick test_explore_jobs_identical_truncated;
          Alcotest.test_case "first failure" `Quick test_explore_jobs_identical_failure;
          QCheck_alcotest.to_alcotest prop_explore_jobs_identical;
        ] );
      ( "domain-local state",
        [
          Alcotest.test_case "two live runtimes" `Quick test_span_two_live_runtimes;
          Alcotest.test_case "nested runtime" `Quick test_span_nested_runtime;
          Alcotest.test_case "observations cleared on enable" `Quick
            test_observations_cleared_on_enable;
        ] );
    ]
