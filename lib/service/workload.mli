(** Open-loop traffic generator for the long-lived renaming service.

    Where {!Churn} is {e closed-loop} — each round tops sessions back up
    to a target, so offered load tracks completion — this load drives
    {e open-loop} traffic over {!Drive}: a seeded arrival process decides
    how many acquire/release sessions arrive each round {e regardless}
    of how many are still in flight, so overload shows up as router
    rejections and tail latency instead of back-pressure.  Three arrival
    patterns ship:

    - [steady] — exactly [rate] arrivals per round;
    - [poisson] — Poisson-distributed arrivals of mean [rate] per round
      (realised as a binomial(4·rate, 1/4) thinning, drawn with integer
      RNG only so counts are machine-independent);
    - [bursty] — a burst of [rate·burst_every] arrivals every
      [burst_every] rounds, nothing in between (same long-run mean as
      [steady], maximally clumped).

    Each admitted session joins its shard, acquires a name the next
    round, holds it for a seeded number of rounds (mean [hold]), then
    releases and departs.  Latencies are measured per operation — in
    {e commit-clock} on the simulator and {e wall-clock nanoseconds} on
    the native backend — into `exsel_workload_{join,acquire,release}_latency_*`
    histograms whose quantiles flow into the JSON report, OpenMetrics
    exposition and bench suite P9.  Every draw comes from
    {!Exsel_sim.Rng.create_v2} (rejection-sampled, bias-free) streams. *)

type pattern = Poisson | Bursty | Steady

val pattern_id : pattern -> string
val pattern_of_string : string -> pattern option
val all_patterns : pattern list
val pattern_ids : unit -> string list

type config = {
  service : Drive.config;
  rate : int;  (** mean arrivals per round *)
  burst_every : int;  (** bursty: rounds between bursts *)
  hold : int;  (** mean hold duration in rounds *)
  patterns : pattern list;
}

val default : config
(** {!Drive.default} with 8 rounds; rate 3, bursts every 4 rounds, mean
    hold 2, every pattern. *)

val validate : config -> (unit, string) result
(** Positive [rate], [burst_every] and [hold], a non-empty pattern list,
    then {!Drive.validate}. *)

val run :
  ?jobs:int -> ?on_event:(Drive.event -> unit) -> config -> config Drive.report
(** Run the campaign ({!Drive.run}).
    @raise Invalid_argument when {!validate} rejects the config. *)

val shard_traces :
  config -> pattern -> seed:int -> (int * int * Exsel_sim.Trace.event list) list
(** {!Drive.shard_traces} for one pattern's cell: a Perfetto track of the
    open-loop execution. *)

(** {2 Rendering} *)

val cell_json : Drive.cell -> Exsel_obs.Json.t

val to_json : config Drive.report -> Exsel_obs.Json.t
(** The [exsel-workload/1] document: config echo, per-cell results, and
    the merged [exsel-metrics/1] registry under ["metrics"]. *)

val start_event : config -> Exsel_obs.Json.t
val event_json : Drive.event -> Exsel_obs.Json.t
val pp_summary : Format.formatter -> config Drive.report -> unit
