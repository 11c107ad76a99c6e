(* Churn campaigns: closed-loop regimes of arrivals, departures and
   crashes, planned round by round over Drive.  Each round tops the
   service back up to [sessions], so offered load tracks completion.

   Regime streams are Rng V1 (the biased stream): the P8 baselines and
   the seeded walkthroughs in EXPERIMENTS.md depend on them bit for
   bit. *)

module Rng = Exsel_sim.Rng
module Json = Exsel_obs.Json
module Metrics = Exsel_obs.Metrics
module Dsl = Exsel_adversary.Dsl

(* ------------------------------------------------------------------ *)
(* Regimes                                                             *)
(* ------------------------------------------------------------------ *)

type regime = Waves | Crash_rejoin | Hot_shard

let regime_id = function
  | Waves -> "waves"
  | Crash_rejoin -> "crash-rejoin"
  | Hot_shard -> "hot-shard"

let regime_of_string = function
  | "waves" -> Some Waves
  | "crash-rejoin" -> Some Crash_rejoin
  | "hot-shard" -> Some Hot_shard
  | _ -> None

let regime_describe = function
  | Waves ->
      "alternating arrival and departure waves: odd rounds admit a burst \
       of sessions, even rounds release and depart a seeded fraction"
  | Crash_rejoin ->
      "sessions crash while holding (pinning the name) or mid-acquire, \
       and fresh sessions rejoin every round to replace them"
  | Hot_shard ->
      "80% of arrivals prefer shard 0 under high acquire/release churn, \
       exercising overflow spill to the neighbour shards"

let all_regimes = [ Waves; Crash_rejoin; Hot_shard ]

let regime_ids () = List.map regime_id all_regimes

let regime_salt = function
  | Waves -> 0x5157
  | Crash_rejoin -> 0xC4A5
  | Hot_shard -> 0x0407

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = { service : Drive.config; sessions : int; regimes : regime list }

let default = { service = Drive.default; sessions = 6; regimes = all_regimes }

let validate cfg =
  if cfg.sessions <= 0 then Error "sessions must be positive"
  else if cfg.regimes = [] then Error "at least one churn regime required"
  else Drive.validate cfg.service

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

(* One round of regime behaviour: decide departures, crashes and
   releases for existing sessions, then top the service back up to
   [sessions].  On the simulator a crash can be injected mid-acquire;
   natively the same draw crashes the session before it starts (a crash
   is just a process that never takes another step, so "before the op"
   is a legal instant). *)
let plan cfg regime ctx ~round =
  let rng = Drive.rng ctx in
  let pct p = Rng.int rng 100 < p in
  List.iter
    (fun (s : Drive.session) ->
      match s.s_phase with
      | Holding _ -> (
          match regime with
          | Waves ->
              if round mod 2 = 0 && pct 60 then Drive.release ctx s ~depart:true
          | Crash_rejoin ->
              let d = Rng.int rng 100 in
              if d < 15 then Drive.crash ctx s
              else if d < 45 then Drive.release ctx s ~depart:false
          | Hot_shard -> if pct 50 then Drive.release ctx s ~depart:false)
      | Idle -> (
          match regime with
          | Waves ->
              if round mod 2 = 0 && pct 40 then Drive.depart ctx s
              else Drive.acquire ctx s
          | Crash_rejoin ->
              if Rng.int rng 100 < 15 then
                if Drive.sim ctx then
                  Drive.acquire ~crash_after:(1 + Rng.int rng 25) ctx s
                else Drive.crash ctx s
              else Drive.acquire ctx s
          | Hot_shard -> Drive.acquire ctx s)
      | Joining | Acquiring | Releasing _ | Departed | Crashed _ -> ())
    (Drive.sessions ctx);
  let live =
    List.length
      (List.filter
         (fun (s : Drive.session) ->
           match s.s_phase with
           | Joining | Idle | Acquiring | Holding _ | Releasing _ -> true
           | Departed | Crashed _ -> false)
         (Drive.sessions ctx))
  in
  let arrivals =
    match regime with
    | Waves -> if round mod 2 = 1 then max 0 (cfg.sessions - live) else 0
    | Crash_rejoin | Hot_shard -> max 0 (cfg.sessions - live)
  in
  for _ = 1 to arrivals do
    match regime with
    | Hot_shard -> Drive.arrive ?prefer:(if pct 80 then Some 0 else None) ctx
    | Waves | Crash_rejoin -> Drive.arrive ctx
  done

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let spec =
  {
    Drive.name = "Churn";
    label = "regime";
    rng_of_seed = Rng.create;
    core_seed = 97;
    client = (fun n -> (7919 * n) + 1_299_721);
    latency_prefix = "exsel_";
    join_latency = false;
    counters =
      Drive.
        [
          ("exsel_service_joins", fun c -> c.c_joins);
          ("exsel_service_acquires", fun c -> c.c_acquires);
          ("exsel_service_releases", fun c -> c.c_releases);
          ("exsel_service_crashes", fun c -> c.c_crashes);
          ("exsel_service_spills", fun c -> c.c_spills);
          ("exsel_service_rejects", fun c -> c.c_rejects);
          ("exsel_service_recycles", fun c -> c.c_recycles);
          ("exsel_service_violations", fun c -> List.length c.c_violations);
        ];
    gauges =
      Drive.
        [
          ("exsel_shard_occupancy", fun s -> s.ss_occupancy_max);
          ("exsel_shard_held", fun s -> s.ss_held_max);
        ];
    cells_counter = "exsel_service_cells";
  }

let load cfg regime =
  {
    Drive.id = regime_id regime;
    salt = regime_salt regime;
    plan = plan cfg regime;
  }

let run ?jobs ?on_event cfg =
  Result.iter_error (fun m -> invalid_arg ("Churn.run: " ^ m)) (validate cfg);
  Drive.run ?jobs ?on_event spec cfg.service
    (List.map (load cfg) cfg.regimes)
    cfg

let shard_traces cfg regime ~seed =
  Drive.shard_traces spec cfg.service (load cfg regime) ~seed

(* ------------------------------------------------------------------ *)
(* exsel-service/1 and exsel-events/1                                  *)
(* ------------------------------------------------------------------ *)

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let shard_summary_json (s : Drive.shard_summary) =
  Json.Obj
    [
      ("shard", Json.Int s.ss_shard);
      ("epochs", Json.Int s.ss_epochs);
      ("admitted", Json.Int s.ss_admitted);
      ("held_max", Json.Int s.ss_held_max);
      ("occupancy_max", Json.Int s.ss_occupancy_max);
    ]

let cell_json (c : Drive.cell) =
  Json.Obj
    [
      ("regime", Json.String c.c_load);
      ("seed", Json.Int c.c_seed);
      ("ok", Json.Bool (c.c_violations = []));
      ("rounds", Json.Int c.c_rounds);
      ("joins", Json.Int c.c_joins);
      ("acquires", Json.Int c.c_acquires);
      ("releases", Json.Int c.c_releases);
      ("crashes", Json.Int c.c_crashes);
      ("spills", Json.Int c.c_spills);
      ("rejects", Json.Int c.c_rejects);
      ("recycles", Json.Int c.c_recycles);
      ("commits", Json.Int c.c_commits);
      ("wall_ns", Json.Int c.c_wall_ns);
      ("max_name", Json.Int c.c_max_name);
      ("shards", Json.List (List.map shard_summary_json c.c_shards));
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) c.c_violations) );
    ]

let adversary_json (svc : Drive.config) =
  match svc.adversary with
  | Some expr -> [ ("adversary", Json.String (Dsl.to_string expr)) ]
  | None -> []

let to_json (r : config Drive.report) =
  let cfg = r.r_config and svc = r.r_config.service in
  Json.Obj
    ([
       ("schema", Json.String "exsel-service/1");
       ("backend", Json.String (Drive.backend_name svc.backend));
     ]
    @ (match svc.backend with
      | Native { domains } -> [ ("domains", Json.Int domains) ]
      | Sim -> [])
    @ [
        ("shards", Json.Int svc.shards);
        ("cap", Json.Int svc.cap);
        ("sessions", Json.Int cfg.sessions);
        ("rounds", Json.Int svc.rounds);
        ("entry", Json.String (Core.entry_algo_to_string svc.entry));
        ("stride", Json.Int (Core.width_for svc.entry ~cap:svc.cap));
        ("seeds", ints svc.seeds);
      ]
    @ adversary_json svc
    @ [
        ("cells", Json.List (List.map cell_json r.r_cells));
        ("violations", Json.Int r.r_violations);
        ("metrics", Metrics.to_json r.r_metrics);
      ])

let start_event cfg =
  let svc = cfg.service in
  Json.Obj
    ([
       ("schema", Json.String "exsel-events/1");
       ("event", Json.String "start");
       ("kind", Json.String "service");
       ("backend", Json.String (Drive.backend_name svc.backend));
       ( "regimes",
         Json.List (List.map (fun r -> Json.String (regime_id r)) cfg.regimes) );
       ("seeds", ints svc.seeds);
       ("shards", Json.Int svc.shards);
       ("cap", Json.Int svc.cap);
       ("sessions", Json.Int cfg.sessions);
       ("rounds", Json.Int svc.rounds);
     ]
    @ adversary_json svc
    @ [ ("cells", Json.Int (List.length cfg.regimes * List.length svc.seeds)) ])

let event_json = function
  | Drive.Cell_started { index; load; seed } ->
      Json.Obj
        [
          ("event", Json.String "cell_started");
          ("cell", Json.Int index);
          ("regime", Json.String load);
          ("seed", Json.Int seed);
        ]
  | Drive.Cell_finished { index; cell = c } ->
      Json.Obj
        [
          ("event", Json.String "cell_finished");
          ("cell", Json.Int index);
          ("regime", Json.String c.c_load);
          ("seed", Json.Int c.c_seed);
          ("ok", Json.Bool (c.c_violations = []));
          ("acquires", Json.Int c.c_acquires);
          ("releases", Json.Int c.c_releases);
          ("crashes", Json.Int c.c_crashes);
          ("spills", Json.Int c.c_spills);
          ("max_name", Json.Int c.c_max_name);
          ("quantiles", Metrics.quantiles_json c.c_metrics);
        ]

let pp_summary ppf (r : config Drive.report) =
  let cfg = r.r_config and svc = r.r_config.service in
  Format.fprintf ppf
    "service: backend=%s shards=%d cap=%d sessions=%d rounds=%d entry=%s%s@."
    (Drive.backend_name svc.backend)
    svc.shards svc.cap cfg.sessions svc.rounds
    (Core.entry_algo_to_string svc.entry)
    (match svc.adversary with
    | Some e -> " adversary=" ^ Dsl.to_string e
    | None -> "");
  Drive.pp_cells ~width:13
    (fun ppf (c : Drive.cell) ->
      Format.fprintf ppf
        "  ok    %-13s seed=%-3d acquires=%-4d releases=%-4d crashes=%-3d \
         spills=%-3d recycles=%-2d max-name=%d@."
        c.c_load c.c_seed c.c_acquires c.c_releases c.c_crashes c.c_spills
        c.c_recycles c.c_max_name)
    ppf r
