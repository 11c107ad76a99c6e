module Explore = Exsel_sim.Explore
module Trace = Exsel_sim.Trace
module Json = Exsel_obs.Json
module Metrics = Exsel_obs.Metrics

type config = {
  algos : Adapter.t list;
  regimes : Regime.t list;
  seeds : int list;
  k : int;
  steps_multiple : float;
  max_commits : int;
  shrink : bool;
}

let default =
  {
    algos = Adapter.honest;
    regimes = Regime.all;
    seeds = [ 1; 2; 3 ];
    k = 5;
    steps_multiple = 1.0;
    max_commits = 1_000_000;
    shrink = true;
  }

(* [--seeds] accepts either a count ("5" → seeds 1..5) or an explicit
   comma-separated list ("3,7,11").  Duplicate and negative seeds are
   rejected rather than silently accepted: a duplicate runs the same
   execution twice and skews [seeds_run], and a negative seed aliases
   the RNG state of a positive one ({!Exsel_sim.Rng.create} folds the
   seed), silently shrinking the coverage the report claims. *)
let seeds_of_string spec =
  let parts = String.split_on_char ',' (String.trim spec) in
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "invalid seed %S (expected an integer)" s)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse s with Ok n -> collect (n :: acc) rest | Error e -> Error e)
  in
  match collect [] parts with
  | Error e -> Error e
  | Ok [ n ] ->
      (* a single value is a count, matching the historical interface *)
      if n <= 0 then
        Error (Printf.sprintf "seed count %d must be positive" n)
      else Ok (List.init n (fun i -> i + 1))
  | Ok seeds -> (
      match List.find_opt (fun s -> s < 0) seeds with
      | Some bad -> Error (Printf.sprintf "negative seed %d aliases a positive RNG state" bad)
      | None -> (
          let rec first_dup seen = function
            | [] -> None
            | s :: rest ->
                if List.mem s seen then Some s else first_dup (s :: seen) rest
          in
          match first_dup [] seeds with
          | Some bad -> Error (Printf.sprintf "duplicate seed %d" bad)
          | None -> Ok seeds))

type violation = {
  v_algo : string;
  v_claim : string;
  v_regime : string;
  v_seed : int;
  v_failure : string;
  v_schedule : Explore.choice list;
  v_shrunk : Explore.choice list option;
  v_shrunk_failure : string option;
  v_trace : Trace.event list;
}

type cell = {
  c_algo : string;
  c_claim : string;
  c_regime : string;
  c_seeds_run : int;
  c_commits : int;
  c_max_steps : int;
  c_crashed : int;
  c_violation : violation option;
  c_metrics : Metrics.t;
}

type report = {
  r_k : int;
  r_steps_multiple : float;
  r_seeds : int list;
  r_cells : cell list;
  r_violations : int;
  r_metrics : Metrics.t;
}

type event =
  | Cell_started of { index : int; algo : string; regime : string }
  | Cell_violated of { index : int; violation : violation }
  | Cell_finished of { index : int; cell : cell }

let is_liveness msg = String.length msg >= 9 && String.sub msg 0 9 = "liveness:"

(* Replaying a schedule against a fresh instance only pays off while the
   result stays readable; beyond this many choices we skip the trace. *)
let trace_cap = 5_000

let analyse cfg (adapter : Adapter.t) (regime : Regime.t) ~seed spec
    (outcome : Runner.outcome) ~failure =
  let init, check = Runner.explorable spec in
  let shrunk, shrunk_failure =
    if cfg.shrink && not (is_liveness failure) then begin
      let s = Explore.shrink ~init ~check outcome.Runner.schedule in
      let i, rt = init () in
      Explore.replay rt s;
      let f = match check i rt with Ok () -> None | Error m -> Some m in
      (Some s, f)
    end
    else (None, None)
  in
  let trace =
    let schedule = Option.value shrunk ~default:outcome.Runner.schedule in
    if List.length schedule > trace_cap then []
    else begin
      let _, rt = init () in
      let tr = Trace.attach rt in
      Explore.replay rt schedule;
      Trace.events tr
    end
  in
  {
    v_algo = adapter.Adapter.id;
    v_claim = adapter.Adapter.claim;
    v_regime = regime.Regime.id;
    v_seed = seed;
    v_failure = failure;
    v_schedule = outcome.Runner.schedule;
    v_shrunk = shrunk;
    v_shrunk_failure = shrunk_failure;
    v_trace = trace;
  }

let run_cell cfg ?(on_event = fun (_ : event) -> ()) ~index
    (adapter : Adapter.t) specs (regime : Regime.t) =
  let seeds_run = ref 0 in
  let commits = ref 0 in
  let max_steps = ref 0 in
  let crashed = ref 0 in
  let violation = ref None in
  (* Every cell owns a private registry, so the -j N merge can fold them
     back in matrix order.  The rename-latency histogram is fed by the
     adapter bodies through Metrics.ambient: the scope covers Runner.drive
     only, so the analyse-phase replays (shrink, trace capture) never
     double-count an operation. *)
  let reg = Metrics.create () in
  let labels = [ ("algo", adapter.Adapter.id); ("regime", regime.Regime.id) ] in
  let runs_c = Metrics.counter reg "exsel_campaign_runs" ~labels in
  let commits_c = Metrics.counter reg "exsel_campaign_commits" ~labels in
  let crashes_c = Metrics.counter reg "exsel_campaign_crashes" ~labels in
  let violations_c = Metrics.counter reg "exsel_campaign_violations" ~labels in
  let max_steps_g = Metrics.gauge reg "exsel_campaign_max_steps" ~labels in
  on_event
    (Cell_started { index; algo = adapter.Adapter.id; regime = regime.Regime.id });
  let rec go = function
    | [] -> ()
    | (seed, spec) :: rest ->
        let driver = regime.Regime.make ~seed ~k:cfg.k in
        let outcome =
          Metrics.with_ambient reg (fun () ->
              Runner.drive ~max_commits:cfg.max_commits spec ~driver)
        in
        incr seeds_run;
        commits := !commits + outcome.Runner.commits;
        max_steps := max !max_steps outcome.Runner.max_steps;
        crashed := !crashed + outcome.Runner.crashed;
        Metrics.inc runs_c 1;
        Metrics.inc commits_c outcome.Runner.commits;
        Metrics.inc crashes_c outcome.Runner.crashed;
        Metrics.max_gauge max_steps_g outcome.Runner.max_steps;
        (match outcome.Runner.failure with
        | None -> go rest
        | Some failure ->
            let v = analyse cfg adapter regime ~seed spec outcome ~failure in
            Metrics.inc violations_c 1;
            on_event (Cell_violated { index; violation = v });
            violation := Some v)
  in
  go specs;
  let cell =
    {
      c_algo = adapter.Adapter.id;
      c_claim = adapter.Adapter.claim;
      c_regime = regime.Regime.id;
      c_seeds_run = !seeds_run;
      c_commits = !commits;
      c_max_steps = !max_steps;
      c_crashed = !crashed;
      c_violation = !violation;
      c_metrics = reg;
    }
  in
  on_event (Cell_finished { index; cell });
  cell

let run ?(jobs = 1) ?(on_cell = fun _ -> ()) ?(on_event = fun _ -> ()) cfg =
  (* Every cell (algo × regime, seeds run in order inside it) is an
     independent unit of work: each run builds its own memory, runtime,
     counters and observers over an immutable plan, and all simulator
     ambient state is domain-local.
     Pool.map returns cell outcomes in matrix order regardless of which
     domain finished first, so the report — including each cell's first
     violation, its shrunk counterexample and its replayed trace — is
     identical at every [jobs].  One spec per adapter and seed serves
     that adapter's regime cells and the analysis of their violations,
     so each instance's plan is built once, by the first cell that runs
     it (Adapter.make builds nothing before its first init). *)
  let matrix =
    List.concat_map
      (fun (adapter : Adapter.t) ->
        let specs =
          List.map
            (fun seed ->
              (seed, adapter.make ~seed ~k:cfg.k ~steps_multiple:cfg.steps_multiple))
            cfg.seeds
        in
        List.map (fun regime -> (adapter, specs, regime)) cfg.regimes)
      cfg.algos
  in
  let matrix = List.mapi (fun index (a, s, r) -> (index, a, s, r)) matrix in
  let cells =
    if jobs <= 1 then
      List.map
        (fun (index, adapter, specs, regime) ->
          let cell = run_cell cfg ~on_event ~index adapter specs regime in
          on_cell cell;
          cell)
        matrix
    else begin
      let cells =
        Exsel_sim.Pool.map ~jobs
          (fun (index, adapter, specs, regime) ->
            run_cell cfg ~on_event ~index adapter specs regime)
          matrix
      in
      List.iter on_cell cells;
      cells
    end
  in
  let violations =
    List.length (List.filter (fun c -> c.c_violation <> None) cells)
  in
  (* Fold the per-cell registries in matrix order.  Metrics.merge is
     commutative, so any order yields the same rendered bytes — folding
     in matrix order anyway keeps the in-memory registry identical too. *)
  let merged = Metrics.create () in
  Metrics.inc (Metrics.counter merged "exsel_campaign_cells") (List.length cells);
  List.iter (fun c -> Metrics.merge ~into:merged c.c_metrics) cells;
  {
    r_k = cfg.k;
    r_steps_multiple = cfg.steps_multiple;
    r_seeds = cfg.seeds;
    r_cells = cells;
    r_violations = violations;
    r_metrics = merged;
  }

(* ------------------------------------------------------------------ *)
(* exsel-conformance/1                                                 *)
(* ------------------------------------------------------------------ *)

let schedule_cap = 100_000

let choice_json = function
  | Explore.Step pid -> Json.Obj [ ("kind", Json.String "step"); ("pid", Json.Int pid) ]
  | Explore.Crash pid ->
      Json.Obj [ ("kind", Json.String "crash"); ("pid", Json.Int pid) ]

let schedule_json s = Json.List (List.map choice_json s)

let violation_json v =
  let base =
    [
      ("seed", Json.Int v.v_seed);
      ("failure", Json.String v.v_failure);
      ("schedule_len", Json.Int (List.length v.v_schedule));
    ]
  in
  let sched =
    if List.length v.v_schedule <= schedule_cap then
      [ ("schedule", schedule_json v.v_schedule) ]
    else []
  in
  let shrunk =
    match v.v_shrunk with
    | None -> []
    | Some s -> [ ("shrunk", schedule_json s) ]
  in
  let shrunk_failure =
    match v.v_shrunk_failure with
    | None -> []
    | Some m -> [ ("shrunk_failure", Json.String m) ]
  in
  let trace =
    match v.v_trace with
    | [] -> []
    | events ->
        let label =
          Printf.sprintf "%s/%s seed=%d" v.v_algo v.v_regime v.v_seed
        in
        [ ("trace", Exsel_obs.Trace_export.to_json ~label events) ]
  in
  Json.Obj (base @ sched @ shrunk @ shrunk_failure @ trace)

let cell_json c =
  let base =
    [
      ("algo", Json.String c.c_algo);
      ("claim", Json.String c.c_claim);
      ("regime", Json.String c.c_regime);
      ("seeds_run", Json.Int c.c_seeds_run);
      ("commits", Json.Int c.c_commits);
      ("max_steps", Json.Int c.c_max_steps);
      ("crashed", Json.Int c.c_crashed);
      ("ok", Json.Bool (c.c_violation = None));
    ]
  in
  match c.c_violation with
  | None -> Json.Obj base
  | Some v -> Json.Obj (base @ [ ("violation", violation_json v) ])

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "exsel-conformance/1");
      ("k", Json.Int r.r_k);
      ("steps_multiple", Json.Float r.r_steps_multiple);
      ("seeds", Json.List (List.map (fun s -> Json.Int s) r.r_seeds));
      ("cells", Json.List (List.map cell_json r.r_cells));
      ("violations", Json.Int r.r_violations);
      ("metrics", Metrics.to_json r.r_metrics);
    ]

(* ------------------------------------------------------------------ *)
(* exsel-events/1                                                      *)
(* ------------------------------------------------------------------ *)

(* Event lines carry no wall-clock or job-count data: under [-j N] they
   interleave in a nondeterministic order but the multiset of lines is
   identical to [-j 1], so sorted streams compare byte-equal. *)

let start_event cfg =
  Json.Obj
    [
      ("schema", Json.String "exsel-events/1");
      ("event", Json.String "start");
      ("kind", Json.String "conformance");
      ( "algos",
        Json.List
          (List.map (fun a -> Json.String a.Adapter.id) cfg.algos) );
      ( "regimes",
        Json.List
          (List.map (fun r -> Json.String r.Regime.id) cfg.regimes) );
      ("seeds", Json.List (List.map (fun s -> Json.Int s) cfg.seeds));
      ("k", Json.Int cfg.k);
      ("cells", Json.Int (List.length cfg.algos * List.length cfg.regimes));
    ]

let event_json = function
  | Cell_started { index; algo; regime } ->
      Json.Obj
        [
          ("event", Json.String "cell_started");
          ("cell", Json.Int index);
          ("algo", Json.String algo);
          ("regime", Json.String regime);
        ]
  | Cell_violated { index; violation = v } ->
      Json.Obj
        [
          ("event", Json.String "cell_violated");
          ("cell", Json.Int index);
          ("algo", Json.String v.v_algo);
          ("regime", Json.String v.v_regime);
          ("seed", Json.Int v.v_seed);
          ("failure", Json.String v.v_failure);
        ]
  | Cell_finished { index; cell = c } ->
      Json.Obj
        [
          ("event", Json.String "cell_finished");
          ("cell", Json.Int index);
          ("algo", Json.String c.c_algo);
          ("regime", Json.String c.c_regime);
          ("seeds_run", Json.Int c.c_seeds_run);
          ("commits", Json.Int c.c_commits);
          ("max_steps", Json.Int c.c_max_steps);
          ("crashed", Json.Int c.c_crashed);
          ("ok", Json.Bool (c.c_violation = None));
          ("quantiles", Metrics.quantiles_json c.c_metrics);
        ]

let done_event r =
  Json.Obj
    [
      ("event", Json.String "done");
      ("cells", Json.Int (List.length r.r_cells));
      ("violations", Json.Int r.r_violations);
      ("metrics", Metrics.summary_json r.r_metrics);
    ]

let pp_summary ppf r =
  Format.fprintf ppf "conformance: k=%d seeds=%d steps_multiple=%g@." r.r_k
    (List.length r.r_seeds) r.r_steps_multiple;
  List.iter
    (fun c ->
      match c.c_violation with
      | None ->
          Format.fprintf ppf "  ok    %-16s %-14s (%s; %d seeds, %d commits, \
                              max_steps %d, crashed %d)@."
            c.c_algo c.c_regime c.c_claim c.c_seeds_run c.c_commits
            c.c_max_steps c.c_crashed
      | Some v ->
          Format.fprintf ppf "  FAIL  %-16s %-14s (%s) seed=%d@." c.c_algo
            c.c_regime c.c_claim v.v_seed;
          Format.fprintf ppf "        %s@." v.v_failure;
          (match v.v_shrunk with
          | Some s ->
              Format.fprintf ppf "        shrunk %d -> %d choices%s@."
                (List.length v.v_schedule) (List.length s)
                (match v.v_shrunk_failure with
                | Some m -> ": " ^ m
                | None -> "")
          | None -> ()))
    r.r_cells;
  Format.fprintf ppf "  %d violation%s in %d cells@." r.r_violations
    (if r.r_violations = 1 then "" else "s")
    (List.length r.r_cells)
