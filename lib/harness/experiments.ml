open Exsel_sim
module R = Exsel_renaming
module SC = Exsel_collect.Store_collect
module SD = Exsel_repository.Selfish_deposit
module AD = Exsel_repository.Altruistic_deposit
module UN = Exsel_repository.Unbounded_naming
module HB = Exsel_repository.Help_board
module LL = Exsel_renaming.Long_lived
module Adversary = Exsel_lowerbound.Adversary
module Adapter = Exsel_conformance.Adapter
module Regime = Exsel_conformance.Regime

(* ------------------------------------------------------------------ *)
(* Observation capture: when observing is on, every renaming row run
   through [drive] attaches a register probe and a span sink and queues
   a structured record; the bench / CLI JSON exports drain the queue
   after each experiment. *)

type observation = {
  obs_label : string;
  obs_summary : Metrics.summary;
  obs_probe : Exsel_obs.Probe.report;
  obs_spans : Exsel_obs.Span.agg list;
}

(* Domain-local capture state ([Domain.DLS], DESIGN.md §10): campaigns
   and benches running experiments on several domains each get their own
   observing flag and queue, so observations never leak across domains.
   Enabling observation also clears the queue — a run that raised before
   [drain_observations] (e.g. an invariant check failing mid-experiment)
   must not bleed its observations into the next report. *)
type obs_state = {
  mutable observing : bool;
  mutable observations_rev : observation list;
}

let obs_key : obs_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { observing = false; observations_rev = [] })

let obs_state () = Domain.DLS.get obs_key

let set_observing b =
  let st = obs_state () in
  if b then st.observations_rev <- [];
  st.observing <- b

let drain_observations () =
  let st = obs_state () in
  let obs = List.rev st.observations_rev in
  st.observations_rev <- [];
  obs

let observation_to_json o =
  Exsel_obs.Json.Obj
    [
      ("label", Exsel_obs.Json.String o.obs_label);
      ("summary", Exsel_obs.Json.of_summary o.obs_summary);
      ("probe", Exsel_obs.Probe.to_json o.obs_probe);
      ("spans", Exsel_obs.Span.aggregate_to_json o.obs_spans);
    ]

let adapter id =
  match Adapter.find id with
  | Some a -> a
  | None -> invalid_arg ("Experiments: no adapter " ^ id)

type outcome = {
  summary : Metrics.summary;
  names : int list;  (* names actually assigned *)
  failures : int;  (* processes that ended without a name *)
  bound : int;  (* the instance's claimed name bound *)
  internals : (string * int) list;  (* the instance's own counters *)
}

(* One renaming row: adapter [id]'s instance with parameters [p] (and,
   with [lane], a fallback lane built after it in the same memory), a
   contender per original name in [ids], driven by Runner.drive under the
   uniform regime seeded [seed] and checked against the adapter's claims.
   Rows that overload an instance on purpose are outside its completion
   claim: they check exclusiveness, the name bound and steps.  [label]
   tags the queued observation when observing is on. *)
let drive ?(overloaded = false) ?lane ~label ~seed ~ids id p =
  let a = adapter id in
  let st = obs_state () in
  let observed = ref None in
  let sinks rt =
    let span = Exsel_obs.Span.attach rt in
    fun () -> observed := Some (span, Exsel_obs.Probe.attach rt)
  in
  let build mem =
    let b = a.Adapter.instance p mem in
    match lane with None -> b | Some lane -> lane mem b
  in
  let r =
    Adapter.run
      ?sinks:(if st.observing then Some sinks else None)
      ~max_commits:200_000_000
      ?completion:(if overloaded then Some None else None)
      a build ~ids:(Array.of_list ids)
      ~driver:(Regime.random.Regime.make ~seed ~k:(List.length ids))
  in
  Option.iter
    (fun msg -> failwith (Printf.sprintf "%s (%s): %s" id label msg))
    r.Adapter.outcome.Exsel_conformance.Runner.failure;
  let summary = Metrics.of_runtime r.Adapter.runtime in
  (match !observed with
  | Some (sp, pr) ->
      st.observations_rev <-
        {
          obs_label = label;
          obs_summary = summary;
          obs_probe = Exsel_obs.Probe.report pr;
          obs_spans = Exsel_obs.Span.aggregate sp;
        }
        :: st.observations_rev;
      Exsel_obs.Span.detach sp
  | None -> ());
  let names = Array.to_list r.Adapter.results |> List.filter_map Fun.id in
  {
    summary;
    names;
    failures = List.length ids - List.length names;
    bound = r.Adapter.built.Adapter.name_bound;
    internals = r.Adapter.built.Adapter.internals ();
  }

let internal o key = List.assoc key o.internals

let max_name names = List.fold_left max (-1) names

let ids_spread ~count ~bound =
  List.init count (fun i -> i * (bound / count) mod bound)

(* Theorem 6's adversary against adapter [a]'s instance with parameters
   [p]: one process per original name in [0, p.names), [p.k] survivors.
   Returns the instance's name bound M, its register count r and what
   the adversary forced. *)
let force_adversary (a : Adapter.t) (p : Adapter.params) =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let b = a.Adapter.instance p mem in
  let spawn v =
    Runtime.spawn rt ~name:(Printf.sprintf "p%d" v) (fun () -> ignore (b.Adapter.rename ~me:v))
  in
  let r = Memory.registers mem in
  let m = b.Adapter.name_bound in
  (m, r, Adversary.force rt ~spawn ~n_names:p.Adapter.names ~k:p.Adapter.k ~m ~r)

(* ------------------------------------------------------------------ *)

let t1_comparison () =
  let n_names = 1024 in
  let row algo id k ~seed =
    let o =
      drive
        ~label:(Printf.sprintf "algo=%s,k=%d" algo k)
        ~seed:(100 + k) ~ids:(ids_spread ~count:k ~bound:n_names) id
        (Adapter.params ~seed ~k ~names:n_names ())
    in
    [
      algo;
      Table.cell_int k;
      Table.cell_int o.summary.Metrics.max_steps;
      Table.cell_int (max_name o.names + 1);
      Table.cell_int o.summary.Metrics.registers;
      Table.cell_int o.failures;
    ]
  in
  let rows =
    List.concat_map
      (fun k ->
        [
          row "MA (Moir-Anderson)" "ma" k ~seed:0;
          row "Snapshot (Attiya et al.)" "attiya" k ~seed:0;
          row "PolyLog-Rename" "polylog" k ~seed:(7 * k);
          row "Efficient-Rename" "efficient" k ~seed:(9 * k);
          row "Adaptive-Rename" "adaptive" k ~seed:(11 * k);
        ])
      [ 4; 8; 16 ]
  in
  Table.make ~id:"T1" ~title:(Printf.sprintf "renaming algorithms at N=%d" n_names)
    ~header:[ "algorithm"; "k"; "max steps"; "M (measured)"; "registers"; "failed" ]
    ~notes:
      [
        "Expected shape: MA has smallest steps but M=k(k+1)/2; the snapshot";
        "baseline pays O(N)-size scans; PolyLog has polylog(N) steps with M=O(k);";
        "Efficient reaches the optimal M=2k-1; Adaptive matches it without knowing k, N.";
      ]
    rows

let t2_polylog () =
  let rows =
    List.concat_map
      (fun n_names ->
        List.map
          (fun k ->
            let o =
              drive
                ~label:(Printf.sprintf "k=%d,N=%d" k n_names)
                ~seed:(3 * k) ~ids:(ids_spread ~count:k ~bound:n_names) "polylog"
                (Adapter.params ~seed:(k + n_names) ~k ~names:n_names ())
            in
            let bound = R.Spec.polylog_steps ~k ~n_names in
            [
              Table.cell_int k;
              Table.cell_int n_names;
              Table.cell_int o.summary.Metrics.max_steps;
              Table.cell_float bound;
              Table.cell_float (float_of_int o.summary.Metrics.max_steps /. bound);
              Table.cell_int o.bound;
              Table.cell_int o.summary.Metrics.registers;
              Table.cell_float (R.Spec.polylog_registers ~k ~n_names);
              Table.cell_int o.failures;
            ])
          [ 4; 8; 16; 32 ])
      [ 1024; 16384; 262144 ]
  in
  Table.make ~id:"T2" ~title:"Theorem 1: PolyLog-Rename(k, N) sweep"
    ~header:
      [ "k"; "N"; "max steps"; "bound"; "ratio"; "M"; "registers"; "r-bound"; "failed" ]
    ~notes:
      [
        "Shape holds if ratio stays flat (or falls) as k and N grow:";
        "steps = O(log k (log N + log k log log N)), M = O(k), r = O(k log(N/k)).";
      ]
    rows

let t3_efficient () =
  let rows =
    List.map
      (fun k ->
        let o =
          drive
            ~label:(Printf.sprintf "k=%d" k)
            ~seed:k ~ids:(List.init k (fun i -> 1000 + (257 * i))) "efficient"
            (Adapter.params ~seed:(13 * k) ~k ~names:k ())
        in
        [
          Table.cell_int k;
          Table.cell_int o.summary.Metrics.max_steps;
          Table.cell_float (float_of_int o.summary.Metrics.max_steps /. float_of_int k);
          Table.cell_int (max_name o.names + 1);
          Table.cell_int (R.Spec.efficient_names ~k);
          Table.cell_int (internal o "M'");
          Table.cell_int o.summary.Metrics.registers;
          Table.cell_float
            (float_of_int o.summary.Metrics.registers /. float_of_int (k * k));
        ])
      [ 2; 4; 8; 16; 24 ]
  in
  Table.make ~id:"T3" ~title:"Theorem 2: Efficient-Rename(k)"
    ~header:[ "k"; "max steps"; "steps/k"; "M meas"; "2k-1"; "M'"; "registers"; "r/k^2" ]
    ~notes:
      [
        "Shape: M meas <= 2k-1 always; r/k^2 bounded.  steps/k grows with the";
        "substituted final stage (snapshot renaming costs O(M') reads per scan";
        "where AF would pay O(M') total) — see EXPERIMENTS.md, Substitution 2.";
      ]
    rows

let t4_almost_adaptive () =
  let n = 64 and n_names = 2048 in
  let rows =
    List.map
      (fun k ->
        let o =
          drive
            ~label:(Printf.sprintf "k=%d" k)
            ~seed:(19 + k) ~ids:(ids_spread ~count:k ~bound:n_names) "almost-adaptive"
            (Adapter.params ~n ~seed:(17 * k) ~k ~names:n_names ())
        in
        [
          Table.cell_int k;
          Table.cell_int o.summary.Metrics.max_steps;
          Table.cell_int (max_name o.names + 1);
          Table.cell_int o.bound;
          Table.cell_int (internal o "top level");
          Table.cell_int (internal o "reserve");
          Table.cell_int o.summary.Metrics.registers;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Table.make ~id:"T4"
    ~title:(Printf.sprintf "Theorem 3: Almost-Adaptive(N=%d), n=%d, k unknown" n_names n)
    ~header:[ "k"; "max steps"; "max name+1"; "name bound(k)"; "top level"; "reserve"; "registers" ]
    ~notes:
      [
        "Shape: names stay within the k-dependent bound although the code";
        "never sees k; the reserve lane is never exercised.";
      ]
    rows

let t5_adaptive () =
  let n = 32 in
  let rows =
    List.map
      (fun k ->
        let o =
          drive
            ~label:(Printf.sprintf "k=%d" k)
            ~seed:(29 + k) ~ids:(List.init k (fun i -> 777 + (13 * i))) "adaptive"
            (Adapter.params ~n ~seed:(23 * k) ~k ~names:k ())
        in
        [
          Table.cell_int k;
          Table.cell_int o.summary.Metrics.max_steps;
          Table.cell_float (float_of_int o.summary.Metrics.max_steps /. float_of_int k);
          Table.cell_int (max_name o.names + 1);
          Table.cell_int o.bound;
          Table.cell_int (internal o "reserve");
          Table.cell_int o.summary.Metrics.registers;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Table.make ~id:"T5" ~title:(Printf.sprintf "Theorem 4: Adaptive-Rename, n=%d, k and N unknown" n)
    ~header:[ "k"; "max steps"; "steps/k"; "max name+1"; "8k-lgk-1"; "reserve"; "registers" ]
    ~notes:[ "Shape: names within 8k-lgk-1; registers O(n^2) independent of k." ]
    rows

let t6_store_collect () =
  let k = 8 in
  let run label make =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let sc = make mem in
    let first_steps = ref 0 in
    let procs =
      List.init k (fun i ->
          Runtime.spawn rt ~name:(Printf.sprintf "s%d" i) (fun () ->
              SC.store sc ~me:(i * 3) (100 + i)))
    in
    Scheduler.run ~max_commits:200_000_000 rt (Scheduler.random (Rng.create ~seed:41));
    List.iter (fun p -> first_steps := max !first_steps (Runtime.steps p)) procs;
    (* subsequent store *)
    let second = Runtime.spawn rt ~name:"again" (fun () -> SC.store sc ~me:0 999) in
    Scheduler.run rt (Scheduler.round_robin ());
    let collector = Runtime.spawn rt ~name:"c" (fun () -> ignore (SC.collect sc)) in
    Scheduler.run rt (Scheduler.round_robin ());
    [
      label;
      Table.cell_int !first_steps;
      Table.cell_int (Runtime.steps second);
      Table.cell_int (Runtime.steps collector);
      Table.cell_int (SC.slots sc);
      Table.cell_int (Memory.registers mem);
    ]
  in
  let rows =
    [
      run "(i) k,N known (N=256)" (fun mem ->
          SC.create_known ~rng:(Rng.create ~seed:51) mem ~name:"sc" ~k ~inputs:256);
      run "(ii) N=O(n) (n=32)" (fun mem ->
          SC.create_almost ~rng:(Rng.create ~seed:52) mem ~name:"sc" ~n:32 ~inputs:32);
      run "(iii) N=poly(n) (n=32,N=1024)" (fun mem ->
          SC.create_almost ~rng:(Rng.create ~seed:53) mem ~name:"sc" ~n:32 ~inputs:1024);
      run "(iv) fully adaptive (n=32)" (fun mem ->
          SC.create_adaptive ~rng:(Rng.create ~seed:54) mem ~name:"sc" ~n:32);
    ]
  in
  Table.make ~id:"T6" ~title:(Printf.sprintf "Theorem 5: Store&Collect, k=%d contenders" k)
    ~header:
      [ "setting"; "first store steps"; "next store"; "collect steps"; "slots"; "registers" ]
    ~notes:
      [
        "Shape: subsequent stores are 1 step; collect reads an O(k) prefix";
        "(compare collect steps with the slot count).";
      ]
    rows

let t7_lower_bound () =
  let forced label ~n_names ~k ~m ~r (res : Adversary.result) =
    label
    :: List.map Table.cell_int
         [ n_names; k; m; r; res.theoretical_stages; res.forced_stages; res.bound;
           res.max_steps ]
  in
  let case label id ~n_names ~k ~seed =
    let m, r, res =
      force_adversary (adapter id) (Adapter.params ~seed ~k ~names:n_names ())
    in
    forced label ~n_names ~k ~m ~r res
  in
  let rows =
    [
      case "Majority" "majority" ~n_names:4096 ~k:8 ~seed:61;
      case "Majority" "majority" ~n_names:65536 ~k:8 ~seed:62;
      case "Basic-Rename" "basic" ~n_names:4096 ~k:8 ~seed:63;
      case "Moir-Anderson" "ma" ~n_names:1024 ~k:8 ~seed:0;
      (* register-lean strawman: a chain of 2k-1 names, so r is small
         enough that the log term binds and the adversary forces multiple
         stages *)
      case "Chain (r-lean)" "chain" ~n_names:8192 ~k:8 ~seed:0;
      case "Chain (r-lean)" "chain" ~n_names:32768 ~k:4 ~seed:0;
    ]
  in
  (* Theorem 7's variant: a first Store against the adversary *)
  let store_case ~n_names ~k =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let sc = SC.create_known ~rng:(Rng.create ~seed:67) mem ~name:"sc" ~k ~inputs:n_names in
    let spawn v =
      Runtime.spawn rt ~name:(Printf.sprintf "p%d" v) (fun () -> SC.store sc ~me:v v)
    in
    let r = Memory.registers mem in
    let budget = R.Spec.store_lower_bound ~k ~n_names ~r - 1 in
    let m = SC.slots sc in
    forced "Store (Thm 7)" ~n_names ~k ~m ~r
      (Adversary.force ~stage_budget:budget rt ~spawn ~n_names ~k ~m ~r)
  in
  let rows = rows @ [ store_case ~n_names:4096 ~k:8 ] in
  Table.make ~id:"T7" ~title:"Theorems 6-7: adversary-forced local steps"
    ~header:
      [ "algorithm"; "N"; "k"; "M"; "r"; "t theory"; "t forced"; "bound 1+t"; "max steps" ]
    ~notes:
      [
        "Shape: measured max steps >= bound 1+t for every algorithm; the";
        "theory stage budget t = min{k-2, log_2r(N/2M)} shrinks as r grows.";
      ]
    rows

let t8_repositories () =
  let selfish_row n =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let sd = SD.create mem ~name:"sd" ~n in
    let procs =
      Array.init n (fun i ->
          Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
              for v = 1 to 10 do
                ignore (SD.deposit sd ~me:i ((100 * i) + v))
              done))
    in
    let rng = Rng.create ~seed:(71 + n) in
    Scheduler.run_for rt ~commits:(100 * n) (Scheduler.random rng);
    let crashed = n / 2 in
    for i = 0 to crashed - 1 do
      Runtime.crash rt procs.(i)
    done;
    Scheduler.run ~max_commits:200_000_000 rt (Scheduler.random rng);
    let pinned = SD.pinned sd ~alive:(fun q -> q >= crashed) in
    [
      "Selfish";
      Table.cell_int n;
      Table.cell_int crashed;
      Table.cell_int (List.length (SD.deposits sd));
      Table.cell_int (List.length pinned);
      Table.cell_int (n - 1);
      Table.cell_int (Memory.registers mem);
      Table.cell_float
        (float_of_int (Memory.reads mem + Memory.writes mem)
        /. float_of_int (max 1 (List.length (SD.deposits sd))));
    ]
  in
  let altruistic_row n =
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let ad = AD.create mem ~name:"ad" ~n in
    AD.spawn_all rt ad
      ~values:(fun me -> List.init 4 (fun v -> (100 * me) + v))
      ~on_deposit:(fun ~me:_ ~index:_ ~value:_ -> ());
    let rng = Rng.create ~seed:(81 + n) in
    Scheduler.run_for rt ~commits:(300 * n) (Scheduler.random rng);
    let crashed = n - 1 in
    List.iter
      (fun p ->
        let nm = Runtime.proc_name p in
        let victim i = nm = Printf.sprintf "depositor%d" i || nm = Printf.sprintf "provider%d" i in
        if List.exists victim (List.init crashed Fun.id) then Runtime.crash rt p)
      (Runtime.procs rt);
    Scheduler.run ~max_commits:200_000_000 rt (Scheduler.random rng);
    let stranded = HB.stranded (AD.board ad) ~alive:(fun q -> q >= crashed) in
    [
      "Altruistic";
      Table.cell_int n;
      Table.cell_int crashed;
      Table.cell_int (List.length (AD.deposits ad));
      Table.cell_int (List.length stranded);
      Table.cell_int (n * (n - 1));
      Table.cell_int (Memory.registers mem);
      Table.cell_float
        (float_of_int (Memory.reads mem + Memory.writes mem)
        /. float_of_int (max 1 (List.length (AD.deposits ad))));
    ]
  in
  Table.make ~id:"T8" ~title:"Theorems 8-9: repository waste under crashes"
    ~header:
      [ "repository"; "n"; "crashed"; "deposits"; "wasted"; "waste bound"; "registers"; "ops/deposit" ]
    ~notes:
      [
        "Shape: Selfish wastes at most n-1 registers (those pinned in W by";
        "crashed processes); Altruistic strands at most n(n-1) names on the";
        "Help board.";
      ]
    (List.concat [ List.map selfish_row [ 4; 8 ]; List.map altruistic_row [ 3; 4 ] ])

let t9_unbounded_naming () =
  let rows =
    List.map
      (fun n ->
        let mem = Memory.create () in
        let rt = Runtime.create mem in
        let un = UN.create mem ~name:"un" ~n in
        let procs =
          Array.init n (fun i ->
              Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
                  for _ = 1 to 8 do
                    ignore (UN.acquire un ~me:i)
                  done))
        in
        let rng = Rng.create ~seed:(91 + n) in
        Scheduler.run_for rt ~commits:(150 * n) (Scheduler.random rng);
        Runtime.crash rt procs.(0);
        Scheduler.run ~max_commits:200_000_000 rt (Scheduler.random rng);
        let names = UN.committed_names un in
        let high = List.fold_left max 0 names in
        let missing =
          List.filter (fun i -> not (List.mem i names)) (List.init high Fun.id)
        in
        let exclusive = List.length (List.sort_uniq compare names) = List.length names in
        [
          Table.cell_int n;
          Table.cell_int (List.length names);
          (if exclusive then "yes" else "NO");
          Table.cell_int high;
          Table.cell_int (List.length missing);
          Table.cell_int (Memory.registers mem);
        ])
      [ 3; 4; 6 ]
  in
  Table.make ~id:"T9" ~title:"Theorem 10: unbounded naming (1 crash mid-run)"
    ~header:[ "n"; "names committed"; "exclusive"; "high-water"; "skipped so far"; "registers" ]
    ~notes:
      [
        "Shape: exclusiveness always; skipped integers below the high-water";
        "mark are standing candidates plus at most n-1 pinned by crashes";
        "(they shrink again as survivors keep acquiring).";
      ]
    rows

let f1_majority_progress () =
  let k = 8 and n_names = 4096 in
  (* one run per contention multiplier: within budget (x1) the stages beat
     the >= 1/2 guarantee outright; overloaded (x16, x40) the geometric
     cascade of Lemma 5 becomes visible *)
  let run_factor factor =
    let contenders = k * factor in
    let o =
      drive
        ~overloaded:(factor > 1)
        ~label:(Printf.sprintf "contenders=%d" contenders)
        ~seed:96 ~ids:(ids_spread ~count:contenders ~bound:n_names) "basic"
        (Adapter.params ~seed:(95 + factor) ~k ~names:n_names ())
    in
    (contenders, o)
  in
  let runs = List.map run_factor [ 1; 16; 40 ] in
  let first = snd (List.hd runs) in
  let stages = internal first "stages" in
  let rows =
    List.init (stages + 1) (fun s ->
        let label, budget =
          if s < stages then
            (Table.cell_int s, Table.cell_int (internal first (Printf.sprintf "budget.%d" s)))
          else ("unserved", "-")
        in
        label :: budget
        :: List.map
             (fun (_, o) -> Table.cell_int (internal o (Printf.sprintf "stage.%d" s)))
             runs)
  in
  Table.make ~id:"F1"
    ~title:
      (Printf.sprintf
         "Lemma 5 series: renamed per stage of Basic-Rename(k=%d, N=%d) under x1/x16/x40 contention"
         k n_names)
    ~header:
      ([ "stage"; "budget" ]
      @ List.map (fun (c, _) -> Printf.sprintf "renamed (%d procs)" c) runs)
    ~notes:
      [
        "Shape: within budget (x1) the first stage serves everyone (the >= 1/2";
        "guarantee is a worst case); under overload the counts cascade";
        "geometrically through the stages, and the leftover is 'unserved'";
        "(absorbed by the reserve lane in composed algorithms).";
      ]
    rows

let f2_crossover () =
  let k = 8 in
  let rows =
    List.map
      (fun n_names ->
        let measure algo id ~seed =
          let o =
            drive
              ~label:(Printf.sprintf "algo=%s,N=%d" algo n_names)
              ~seed:(n_names + 5) ~ids:(ids_spread ~count:k ~bound:n_names) id
              (Adapter.params ~seed ~k ~names:n_names ())
          in
          o.summary.Metrics.max_steps
        in
        let snapshot_steps =
          if n_names > 4096 then None
          else Some (measure "snapshot" "attiya" ~seed:0)
        in
        let basic = measure "basic" "basic" ~seed:(n_names + 1) in
        let polylog = measure "polylog" "polylog" ~seed:(n_names + 2) in
        let efficient = measure "efficient" "efficient" ~seed:(n_names + 3) in
        [
          Table.cell_int n_names;
          (match snapshot_steps with Some s -> Table.cell_int s | None -> "-");
          Table.cell_int basic;
          Table.cell_int polylog;
          Table.cell_int efficient;
        ])
      [ 256; 1024; 4096; 16384; 65536 ]
  in
  Table.make ~id:"F2" ~title:(Printf.sprintf "series: steps vs N at k=%d — who wins where" k)
    ~header:[ "N"; "snapshot O(N)"; "Basic"; "PolyLog"; "Efficient (N-free)" ]
    ~notes:
      [
        "Shape: the O(N) baseline wins only at small N and grows linearly;";
        "Basic/PolyLog grow polylogarithmically; Efficient is flat in N.";
        "('-' = configuration too expensive for the harness budget.)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let a1_expander_constants () =
  (* How the expander dimensioning constants trade name-range size against
     per-stage success — the reason the paper's 12e4 exists. *)
  let l = 16 and n_names = 4096 in
  let presets =
    [
      ("tight (2, 1)", Exsel_expander.Params.tight);
      ("practical (4, 2.5)", Exsel_expander.Params.practical);
      ( "generous (4, 8)",
        {
          Exsel_expander.Params.degree_factor = 4.0;
          width_factor = 8.0;
          min_degree = 4;
          width_floor = 6;
        } );
    ]
  in
  let rows =
    List.map
      (fun (label, preset) ->
        let o =
          drive
            ~label:(Printf.sprintf "preset=%s" label)
            ~seed:7 ~ids:(ids_spread ~count:l ~bound:n_names) "majority"
            (Adapter.params ~preset ~seed:111 ~k:l ~names:n_names ())
        in
        [
          label;
          Table.cell_int (internal o "degree");
          Table.cell_int o.bound;
          Table.cell_int (List.length o.names);
          Table.cell_int o.failures;
          Table.cell_int o.summary.Metrics.max_steps;
          Table.cell_int o.summary.Metrics.registers;
        ])
      presets
  in
  let paper_row =
    (* Lemma 3 verbatim: dimensions only — the register file would not fit *)
    let params = Exsel_expander.Params.paper in
    [
      "paper (4, 12e4) [dims only]";
      Table.cell_int (Exsel_expander.Params.degree params ~inputs:n_names ~l);
      Table.cell_int (Exsel_expander.Params.width params ~inputs:n_names ~l);
      "-";
      "-";
      "-";
      Table.cell_int (2 * Exsel_expander.Params.width params ~inputs:n_names ~l);
    ]
  in
  let rows = rows @ [ paper_row ] in
  Table.make ~id:"A1"
    ~title:(Printf.sprintf "ablation: expander constants, Majority(l=%d, N=%d)" l n_names)
    ~header:[ "preset (deg, width)"; "degree"; "M"; "renamed"; "failed"; "max steps"; "registers" ]
    ~notes:
      [
        "Wider graphs buy success probability with name-range size — the";
        "trade the paper resolves with its galactic 12e4 constant; the";
        "practical preset relies on certification-and-resampling instead.";
      ]
    rows

let a2_certification () =
  (* What certification-with-resampling contributes: acceptance rates of
     raw sampled graphs per preset. *)
  let l = 8 and n_names = 1024 and samples = 60 in
  let rate params =
    let rng = Rng.create ~seed:222 in
    let passed = ref 0 in
    for _ = 1 to samples do
      let g = Exsel_expander.Gen.sample (Rng.split rng) params ~inputs:n_names ~l in
      match Exsel_expander.Check.verify_sampled (Rng.split rng) g ~l ~trials:100 with
      | Ok () -> incr passed
      | Error _ -> ()
    done;
    float_of_int !passed /. float_of_int samples
  in
  let rows =
    List.map
      (fun (label, params) -> [ label; Table.cell_float (rate params) ])
      [
        ("tight (2, 1)", Exsel_expander.Params.tight);
        ("practical (4, 2.5)", Exsel_expander.Params.practical);
      ]
  in
  Table.make ~id:"A2"
    ~title:
      (Printf.sprintf
         "ablation: certification acceptance of raw sampled graphs (l=%d, N=%d, %d samples)"
         l n_names samples)
    ~header:[ "preset"; "pass rate" ]
    ~notes:
      [
        "Majority.create retries up to 16 samples, so an acceptance rate p";
        "leaves a miss probability of (1-p)^16 — with the practical preset";
        "effectively zero; the reserve lane covers the remainder.";
      ]
    rows

let a3_reserve_lane () =
  (* What the deterministic reserve lane costs and buys: overload a
     PolyLog instance and count who the reserve rescues. *)
  let k = 4 and n_names = 1024 in
  (* an MA grid of side [side] behind the instance, naming above its
     range whoever the instance rejects *)
  let reserve_lane ~side ~rescued mem (b : Adapter.built) =
    let reserve =
      (adapter "ma").Adapter.instance (Adapter.params ~seed:0 ~k:side ~names:side ()) mem
    in
    {
      b with
      Adapter.rename =
        (fun ~me ->
          match b.Adapter.rename ~me with
          | Some w -> Some w
          | None ->
              incr rescued;
              Option.map (fun w -> b.Adapter.name_bound + w) (reserve.Adapter.rename ~me));
      name_bound = b.Adapter.name_bound + reserve.Adapter.name_bound;
      steps_budget = b.Adapter.steps_budget +. reserve.Adapter.steps_budget;
    }
  in
  let rows =
    List.map
      (fun factor ->
        let contenders = k * factor in
        let rescued = ref 0 in
        let o =
          drive
            ~overloaded:(factor > 1)
            ~lane:(reserve_lane ~side:contenders ~rescued)
            ~label:(Printf.sprintf "contenders=%d" contenders)
            ~seed:(factor + 40)
            ~ids:(ids_spread ~count:contenders ~bound:n_names)
            "polylog"
            (Adapter.params ~seed:333 ~k ~names:n_names ())
        in
        [
          Table.cell_int contenders;
          Table.cell_int (List.length o.names);
          Table.cell_int !rescued;
          Table.cell_int o.failures;
          Table.cell_int (contenders * (contenders + 1));
        ])
      [ 1; 8; 32 ]
  in
  Table.make ~id:"A3"
    ~title:
      (Printf.sprintf
         "ablation: reserve lane under overload, PolyLog(k=%d, N=%d) + MA reserve" k
         n_names)
    ~header:[ "contenders"; "named"; "rescued by reserve"; "unserved"; "reserve registers" ]
    ~notes:
      [
        "Within budget the reserve is dead weight (its registers are the";
        "cost); under overload it restores wait-freedom for every process";
        "the expander lanes reject.";
      ]
    rows

let x1_long_lived () =
  (* Extension: long-lived renaming under churn — exclusive holds with a
     name range tracking point contention. *)
  let n = 8 in
  let rows =
    List.map
      (fun holders ->
        let mem = Memory.create () in
        let rt = Runtime.create mem in
        let ll = LL.create mem ~name:"ll" ~n in
        let max_seen = ref 0 in
        let rounds = 5 in
        for i = 0 to holders - 1 do
          ignore
            (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
                 for _ = 1 to rounds do
                   let x = LL.acquire ll ~me:i in
                   if x > !max_seen then max_seen := x;
                   LL.release ll ~me:i
                 done))
        done;
        Scheduler.run ~max_commits:200_000_000 rt
          (Scheduler.random (Rng.create ~seed:(500 + holders)));
        [
          Table.cell_int holders;
          Table.cell_int (rounds * holders);
          Table.cell_int (!max_seen + 1);
          Table.cell_int ((2 * holders) - 1);
          Table.cell_int (Memory.registers mem);
        ])
      [ 1; 2; 4; 8 ]
  in
  Table.make ~id:"X1"
    ~title:(Printf.sprintf "extension: long-lived renaming under churn, n=%d" n)
    ~header:[ "concurrent holders"; "acquires"; "max name+1"; "2k-1"; "registers" ]
    ~notes:
      [
        "Extension beyond the paper's one-shot setting: names are released";
        "and reused; the observed range tracks the point contention k, not";
        "the total number of acquires.";
      ]
    rows

let x2_message_passing () =
  (* The model where renaming was born: ABDPR stable-vectors renaming,
     message complexity and name ranges under crashes. *)
  let module Mnet = Exsel_msgnet.Mnet in
  let module Abdpr = Exsel_msgnet.Abdpr_renaming in
  let rows =
    List.concat_map
      (fun (n, f) ->
        List.map
          (fun crashes ->
            let net = Abdpr.make_net ~n in
            let originals = List.init n (fun i -> (i, 100 + (7 * i))) in
            let crash_after = List.init crashes (fun i -> (i, 25 + (15 * i))) in
            let decided =
              Abdpr.run ~net ~f ~originals ~rng:(Rng.create ~seed:(600 + n + crashes))
                ~crash_after ()
            in
            let names = List.map snd decided in
            if List.length (List.sort_uniq compare names) <> List.length names then
              failwith "X2: duplicate names";
            let max_sent =
              List.fold_left (fun acc p -> max acc (Mnet.sent p)) 0 (Mnet.procs net)
            in
            [
              Table.cell_int n;
              Table.cell_int f;
              Table.cell_int crashes;
              Table.cell_int (List.length decided);
              Table.cell_int (List.fold_left max 0 names + 1);
              Table.cell_int (Abdpr.name_bound ~n ~f);
              Table.cell_int max_sent;
            ])
          [ 0; f ])
      [ (5, 2); (9, 4) ]
  in
  Table.make ~id:"X2"
    ~title:"extension: renaming in asynchronous message passing (ABDPR [14])"
    ~header:
      [ "n"; "f"; "crashed"; "decided"; "max name+1"; "M=(f+1)n"; "max msgs sent" ]
    ~notes:
      [
        "The model where renaming was introduced: stable-vectors renaming";
        "with majorities; survivors always decide exclusive names within";
        "(f+1)n (the original paper's refined mapping reaches n+f).";
      ]
    rows

let x3_randomized () =
  (* Randomized loose renaming vs the deterministic primitives: probes/steps
     at equal contention. *)
  let rows =
    List.concat_map
      (fun k ->
        let run label ?(ids = List.init k (fun i -> 31 * i)) id p =
          let o =
            drive
              ~label:(Printf.sprintf "algo=%s,k=%d" label k)
              ~seed:(700 + k) ~ids id p
          in
          [
            label;
            Table.cell_int k;
            Table.cell_int o.summary.Metrics.max_steps;
            Table.cell_float
              (float_of_int o.summary.Metrics.total_steps /. float_of_int k);
            Table.cell_int (max_name o.names + 1);
            Table.cell_int o.failures;
          ]
        in
        [
          run "Randomized (eps=1)" "randomized"
            (Adapter.params ~seed:(11 * k) ~k ~names:k ());
          run "MA (deterministic)" "ma" (Adapter.params ~seed:0 ~k ~names:k ());
          run "Chain (deterministic)" "chain"
            (Adapter.params ~chain:(2 * k) ~seed:0 ~k ~names:k ());
          (* the immediate snapshot has one slot per original name *)
          run "IS one-shot (BG-style)" "is-rename" ~ids:(List.init k Fun.id)
            (Adapter.params ~seed:0 ~k ~names:k ());
        ])
      [ 8; 16; 32 ]
  in
  Table.make ~id:"X3"
    ~title:"extension: randomized loose renaming vs deterministic primitives"
    ~header:[ "algorithm"; "k"; "max steps"; "avg steps"; "max name+1"; "failed" ]
    ~notes:
      [
        "Private coins spread contention: the randomized table keeps both";
        "average and worst-case probes low at the cost of a (1+eps)k name";
        "range and Las-Vegas (not deterministic) guarantees.";
      ]
    rows

let all_named =
  [
    ("T1", t1_comparison);
    ("T2", t2_polylog);
    ("T3", t3_efficient);
    ("T4", t4_almost_adaptive);
    ("T5", t5_adaptive);
    ("T6", t6_store_collect);
    ("T7", t7_lower_bound);
    ("T8", t8_repositories);
    ("T9", t9_unbounded_naming);
    ("F1", f1_majority_progress);
    ("F2", f2_crossover);
    ("A1", a1_expander_constants);
    ("A2", a2_certification);
    ("A3", a3_reserve_lane);
    ("X1", x1_long_lived);
    ("X2", x2_message_passing);
    ("X3", x3_randomized);
  ]

let all () = List.map (fun (_, f) -> f ()) all_named
