(** Churn campaigns for the sharded long-lived renaming service.

    A {e closed-loop} load over {!Drive}: each round the regime decides
    departures, crashes and releases for the live sessions, then tops
    the service back up to [sessions] arrivals, so offered load tracks
    completion.  {!Drive} runs the (regime × seed) matrix, executes each
    round on either backend and checks every service claim at round
    quiescence.  Regime streams are {!Exsel_sim.Rng.create} (V1) streams,
    kept bit-identical to the historical reports (EXPERIMENTS.md, "A
    service under churn"). *)

(** {2 Regimes} *)

type regime = Waves | Crash_rejoin | Hot_shard

val regime_id : regime -> string
(** ["waves"], ["crash-rejoin"], ["hot-shard"]. *)

val regime_of_string : string -> regime option
val regime_describe : regime -> string

val all_regimes : regime list
val regime_ids : unit -> string list

(** {2 Configuration} *)

type config = {
  service : Drive.config;
  sessions : int;  (** service-wide target of concurrent sessions *)
  regimes : regime list;
}

val default : config
(** {!Drive.default}, 6 sessions, every regime. *)

val validate : config -> (unit, string) result
(** Positive [sessions], a non-empty regime list, then
    {!Drive.validate}. *)

(** {2 Campaigns} *)

val run :
  ?jobs:int -> ?on_event:(Drive.event -> unit) -> config -> config Drive.report
(** Run the campaign ({!Drive.run}).
    @raise Invalid_argument when {!validate} rejects the config. *)

val shard_traces :
  config -> regime -> seed:int -> (int * int * Exsel_sim.Trace.event list) list
(** {!Drive.shard_traces} for one regime's cell: feed the busiest
    shard's events to {!Exsel_obs.Trace_export.chrome}. *)

(** {2 Rendering} *)

val cell_json : Drive.cell -> Exsel_obs.Json.t

val to_json : config Drive.report -> Exsel_obs.Json.t
(** The [exsel-service/1] document: config echo, per-cell results with
    per-shard occupancy summaries and violations, and the merged
    [exsel-metrics/1] registry under ["metrics"]. *)

val start_event : config -> Exsel_obs.Json.t
val event_json : Drive.event -> Exsel_obs.Json.t
val pp_summary : Format.formatter -> config Drive.report -> unit
