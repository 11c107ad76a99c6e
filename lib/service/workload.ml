(* Open-loop traffic generator: seeded arrival processes against the
   sharded long-lived service, planned round by round over Drive.

   The load model is open-loop: the arrival process is drawn from the
   pattern alone, never from how many sessions are still in flight.  A
   full router rejects the arrival (counted, dropped); nothing retries.
   That is the defining property of an open-loop generator: offered load
   is exogenous, so saturation appears as rejects and tail latency, not
   as a quietly throttled arrival rate.

   All randomness draws from Rng.create_v2 (rejection-sampled) streams:
   this generator never had V1 artefacts to preserve. *)

module Rng = Exsel_sim.Rng
module Json = Exsel_obs.Json
module Metrics = Exsel_obs.Metrics
module Dsl = Exsel_adversary.Dsl

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

type pattern = Poisson | Bursty | Steady

let pattern_id = function
  | Poisson -> "poisson"
  | Bursty -> "bursty"
  | Steady -> "steady"

let pattern_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | "steady" -> Some Steady
  | _ -> None

let all_patterns = [ Poisson; Bursty; Steady ]

let pattern_ids () = List.map pattern_id all_patterns

let pattern_salt = function
  | Poisson -> 0x5013
  | Bursty -> 0xB357
  | Steady -> 0x57D7

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  service : Drive.config;
  rate : int;
  burst_every : int;
  hold : int;
  patterns : pattern list;
}

let default =
  {
    service = { Drive.default with rounds = 8 };
    rate = 3;
    burst_every = 4;
    hold = 2;
    patterns = all_patterns;
  }

let validate cfg =
  if cfg.rate <= 0 then Error "rate must be positive"
  else if cfg.burst_every <= 0 then Error "burst-every must be positive"
  else if cfg.hold <= 0 then Error "hold must be positive"
  else if cfg.patterns = [] then Error "at least one arrival pattern required"
  else Drive.validate cfg.service

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

(* Arrivals this round, from the pattern alone — never from the live
   session count.  Poisson is realised as binomial(4·rate, 1/4): the
   same mean, Poisson in the thinning limit, and integer draws only, so
   counts are identical on every machine (no libm in sight). *)
let arrivals_for cfg pattern rng ~round =
  match pattern with
  | Steady -> cfg.rate
  | Poisson ->
      let n = ref 0 in
      for _ = 1 to 4 * cfg.rate do
        if Rng.int rng 4 = 0 then incr n
      done;
      !n
  | Bursty ->
      if (round - 1) mod cfg.burst_every = 0 then cfg.rate * cfg.burst_every
      else 0

(* Each admitted session joins, acquires the next round, holds for a
   draw of mean [hold] (uniform over [1, 2·hold − 1], drawn when the
   acquire is planned), then releases and departs. *)
let plan cfg pattern ctx ~round =
  let rng = Drive.rng ctx in
  List.iter
    (fun (s : Drive.session) ->
      match s.s_phase with
      | Holding (_, until) when round >= until ->
          Drive.release ctx s ~depart:true
      | Idle ->
          Drive.acquire ctx s
            ~hold:
              (if cfg.hold = 1 then 1 else 1 + Rng.int rng ((2 * cfg.hold) - 1))
      | Holding _ | Joining | Acquiring | Releasing _ | Departed | Crashed _ ->
          ())
    (Drive.sessions ctx);
  for _ = 1 to arrivals_for cfg pattern rng ~round do
    Drive.arrive ctx
  done

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let spec =
  {
    Drive.name = "Workload";
    label = "pattern";
    rng_of_seed = Rng.create_v2;
    core_seed = 89;
    client = (fun n -> (6709 * n) + 611_953);
    latency_prefix = "exsel_workload_";
    join_latency = true;
    counters =
      Drive.
        [
          ("exsel_workload_arrivals", fun c -> c.c_arrivals);
          ("exsel_workload_admitted", fun c -> c.c_admitted);
          ("exsel_workload_rejected", fun c -> c.c_rejects);
          ("exsel_workload_joins", fun c -> c.c_joins);
          ("exsel_workload_acquires", fun c -> c.c_acquires);
          ("exsel_workload_releases", fun c -> c.c_releases);
          ("exsel_workload_violations", fun c -> List.length c.c_violations);
        ];
    gauges =
      Drive.[ ("exsel_workload_occupancy", fun s -> s.ss_occupancy_max) ];
    cells_counter = "exsel_workload_cells";
  }

let load cfg pattern =
  {
    Drive.id = pattern_id pattern;
    salt = pattern_salt pattern;
    plan = plan cfg pattern;
  }

let run ?jobs ?on_event cfg =
  Result.iter_error (fun m -> invalid_arg ("Workload.run: " ^ m)) (validate cfg);
  Drive.run ?jobs ?on_event spec cfg.service
    (List.map (load cfg) cfg.patterns)
    cfg

let shard_traces cfg pattern ~seed =
  Drive.shard_traces spec cfg.service (load cfg pattern) ~seed

(* ------------------------------------------------------------------ *)
(* exsel-workload/1 and exsel-events/1                                 *)
(* ------------------------------------------------------------------ *)

let ids cfg =
  Json.List (List.map (fun p -> Json.String (pattern_id p)) cfg.patterns)

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let cell_json (c : Drive.cell) =
  Json.Obj
    [
      ("pattern", Json.String c.c_load);
      ("seed", Json.Int c.c_seed);
      ("ok", Json.Bool (c.c_violations = []));
      ("rounds", Json.Int c.c_rounds);
      ("arrivals", Json.Int c.c_arrivals);
      ("admitted", Json.Int c.c_admitted);
      ("rejected", Json.Int c.c_rejects);
      ("joins", Json.Int c.c_joins);
      ("acquires", Json.Int c.c_acquires);
      ("releases", Json.Int c.c_releases);
      ("spills", Json.Int c.c_spills);
      ("recycles", Json.Int c.c_recycles);
      ("commits", Json.Int c.c_commits);
      ("wall_ns", Json.Int c.c_wall_ns);
      ("max_name", Json.Int c.c_max_name);
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) c.c_violations) );
    ]

let to_json (r : config Drive.report) =
  let cfg = r.r_config and svc = r.r_config.service in
  Json.Obj
    ([
       ("schema", Json.String "exsel-workload/1");
       ("backend", Json.String (Drive.backend_name svc.backend));
     ]
    @ (match svc.backend with
      | Native { domains } -> [ ("domains", Json.Int domains) ]
      | Sim -> [])
    @ [
        ("shards", Json.Int svc.shards);
        ("cap", Json.Int svc.cap);
        ("rounds", Json.Int svc.rounds);
        ("rate", Json.Int cfg.rate);
        ("burst_every", Json.Int cfg.burst_every);
        ("hold", Json.Int cfg.hold);
        ("entry", Json.String (Core.entry_algo_to_string svc.entry));
        ("stride", Json.Int (Core.width_for svc.entry ~cap:svc.cap));
        ("patterns", ids cfg);
        ("seeds", ints svc.seeds);
      ]
    @ (match svc.adversary with
      | Some expr -> [ ("adversary", Json.String (Dsl.to_string expr)) ]
      | None -> [])
    @ [
        ("cells", Json.List (List.map cell_json r.r_cells));
        ("violations", Json.Int r.r_violations);
        ("metrics", Metrics.to_json r.r_metrics);
      ])

let start_event cfg =
  let svc = cfg.service in
  Json.Obj
    [
      ("schema", Json.String "exsel-events/1");
      ("event", Json.String "start");
      ("kind", Json.String "workload");
      ("backend", Json.String (Drive.backend_name svc.backend));
      ("patterns", ids cfg);
      ("seeds", ints svc.seeds);
      ("shards", Json.Int svc.shards);
      ("cap", Json.Int svc.cap);
      ("rounds", Json.Int svc.rounds);
      ("rate", Json.Int cfg.rate);
      ("cells", Json.Int (List.length cfg.patterns * List.length svc.seeds));
    ]

let event_json = function
  | Drive.Cell_started { index; load; seed } ->
      Json.Obj
        [
          ("event", Json.String "cell_started");
          ("cell", Json.Int index);
          ("pattern", Json.String load);
          ("seed", Json.Int seed);
        ]
  | Drive.Cell_finished { index; cell = c } ->
      Json.Obj
        [
          ("event", Json.String "cell_finished");
          ("cell", Json.Int index);
          ("pattern", Json.String c.c_load);
          ("seed", Json.Int c.c_seed);
          ("ok", Json.Bool (c.c_violations = []));
          ("arrivals", Json.Int c.c_arrivals);
          ("rejected", Json.Int c.c_rejects);
          ("acquires", Json.Int c.c_acquires);
          ("releases", Json.Int c.c_releases);
          ("max_name", Json.Int c.c_max_name);
          ("quantiles", Metrics.quantiles_json c.c_metrics);
        ]

let pp_summary ppf (r : config Drive.report) =
  let cfg = r.r_config and svc = r.r_config.service in
  Format.fprintf ppf
    "workload: backend=%s shards=%d cap=%d rounds=%d rate=%d hold=%d entry=%s%s@."
    (Drive.backend_name svc.backend)
    svc.shards svc.cap svc.rounds cfg.rate cfg.hold
    (Core.entry_algo_to_string svc.entry)
    (match svc.adversary with
    | Some e -> " adversary=" ^ Dsl.to_string e
    | None -> "");
  Drive.pp_cells ~width:8
    (fun ppf (c : Drive.cell) ->
      Format.fprintf ppf
        "  ok    %-8s seed=%-3d arrivals=%-4d admitted=%-4d rejected=%-4d \
         acquires=%-4d releases=%-4d max-name=%d@."
        c.c_load c.c_seed c.c_arrivals c.c_admitted c.c_rejects c.c_acquires
        c.c_releases c.c_max_name)
    ppf r
