(** Conformance campaigns: the algorithm × regime × seed matrix.

    A campaign drives every selected {!Adapter} through every selected
    {!Regime} for every seed, checking the adapter's executable claims at
    quiescence of each run (see {!Adapter} for the claim list).  Within a
    cell (one algorithm under one regime) seeds run in order and stop at
    the first violation; the rest of the matrix still runs, so one report
    covers every failing cell.

    A violation carries everything needed to reproduce and explain it:

    - the failing [seed] and the full recorded schedule (every commit and
      crash decision, replayable with {!Exsel_sim.Explore.replay});
    - a minimized counterexample produced by {!Exsel_sim.Explore.shrink}
      (claim violations only — liveness violations, i.e. exhausted commit
      budgets, have no failing quiescent state to shrink towards);
    - a value-carrying {!Exsel_sim.Trace} of the minimized execution,
      exportable to Perfetto via {!Exsel_obs.Trace_export.chrome}.

    {!to_json} renders the whole report as an [exsel-conformance/1]
    document (schema described there); the CLI's [conformance] subcommand
    and the CI campaign step archive it as an artifact. *)

type config = {
  algos : Adapter.t list;
  regimes : Regime.t list;
  seeds : int list;
  k : int;  (** contenders per instance (>= 2) *)
  steps_multiple : float;
      (** tolerance on each adapter's steps budget (1.0 = as claimed) *)
  max_commits : int;  (** per-run liveness budget *)
  shrink : bool;  (** minimize claim-violating schedules *)
}

val default : config
(** All honest adapters, all regimes, seeds [1..3], [k = 5],
    [steps_multiple = 1.0], [max_commits = 1_000_000], shrinking on. *)

type violation = {
  v_algo : string;
  v_claim : string;
  v_regime : string;
  v_seed : int;
  v_failure : string;  (** the claim-check (or liveness) error message *)
  v_schedule : Exsel_sim.Explore.choice list;  (** as recorded *)
  v_shrunk : Exsel_sim.Explore.choice list option;
      (** minimized schedule; [None] for liveness violations or when
          shrinking is disabled *)
  v_shrunk_failure : string option;
      (** the (possibly different) claim error the minimized schedule
          fails with *)
  v_trace : Exsel_sim.Trace.event list;
      (** value-carrying trace of the minimized (else recorded) execution;
          [[]] when the schedule is too large to replay economically *)
}

type cell = {
  c_algo : string;
  c_claim : string;
  c_regime : string;
  c_seeds_run : int;
  c_commits : int;  (** summed over the cell's runs *)
  c_max_steps : int;  (** max over the cell's runs *)
  c_crashed : int;  (** crash decisions summed over the cell's runs *)
  c_violation : violation option;
  c_metrics : Exsel_obs.Metrics.t;
      (** the cell's private registry: campaign counters/gauges labelled
          [{algo; regime}] plus the [exsel_rename_latency_commits]
          histogram fed by the adapter bodies (decide − invoke in
          commit-clock; only the driven runs record — the analyse-phase
          replays are outside the ambient scope) *)
}

type report = {
  r_k : int;
  r_steps_multiple : float;
  r_seeds : int list;
  r_cells : cell list;  (** algo-major, regime-minor order *)
  r_violations : int;
  r_metrics : Exsel_obs.Metrics.t;
      (** per-cell registries folded in matrix order plus the
          [exsel_campaign_cells] total; since {!Exsel_obs.Metrics.merge}
          is commutative and rendering sorts, this is byte-identical at
          every [jobs] *)
}

(** Live progress notifications, in the order a cell produces them:
    [Cell_started], then [Cell_violated] (at most once — seeds stop at
    the first violation, after shrinking/trace capture), then
    [Cell_finished] carrying the completed cell. *)
type event =
  | Cell_started of { index : int; algo : string; regime : string }
      (** [index] is the cell's position in matrix order *)
  | Cell_violated of { index : int; violation : violation }
  | Cell_finished of { index : int; cell : cell }

val run :
  ?jobs:int ->
  ?on_cell:(cell -> unit) ->
  ?on_event:(event -> unit) ->
  config ->
  report
(** Execute the matrix.  Each adapter and seed has one spec from the
    adapter's [make], shared by that adapter's regime cells and the
    shrink and trace replays of their violations, so each instance's
    plan is built once per call, by the first cell that runs it.  [jobs]
    (default 1) shards the cells across that many domains
    ({!Exsel_sim.Pool}); every cell is an independent unit of work and
    results are merged in matrix order, so the report —
    cell outcomes, first-violation-per-cell, shrunk counterexamples,
    replayed traces, merged metrics — is field-for-field identical at
    every [jobs] (DESIGN.md §10).  [on_cell] is called after each
    finished cell (progress reporting); under [jobs > 1] it is called
    once per cell in matrix order after the whole matrix completes.
    [on_event] instead fires {e live}, as cells start and finish: under
    [jobs > 1] it runs concurrently on the worker domains and must be
    thread-safe (the CLI serializes writes with a mutex); event order
    across cells is then nondeterministic, but the multiset of events is
    not — see {!event_json}. *)

val seeds_of_string : string -> (int list, string) result
(** Parse a [--seeds] specification: a single positive count ["5"]
    (seeds [1..5]), or an explicit comma-separated list ["3,7,11"].
    Rejects — naming the offending value — non-integers, non-positive
    counts, negative seeds (they alias positive RNG states) and
    duplicate seeds (they skew [seeds_run]). *)

val to_json : report -> Exsel_obs.Json.t
(** The [exsel-conformance/1] document:
    [{ schema; k; steps_multiple; seeds; cells; violations }] where each
    cell is [{ algo; claim; regime; seeds_run; commits; max_steps;
    crashed; ok; violation? }] and a violation is
    [{ seed; failure; schedule_len; schedule?; shrunk?; shrunk_failure?;
    trace? }] — [schedule]/[shrunk] are arrays of
    [{ kind: "step"|"crash"; pid }] (omitted above 100_000 choices), and
    [trace] is an embedded [exsel-trace/1] document
    ({!Exsel_obs.Trace_export.to_json}).  [metrics] embeds the merged
    registry as an [exsel-metrics/1] document
    ({!Exsel_obs.Metrics.to_json}). *)

(** {2 exsel-events/1 (NDJSON progress stream)}

    One JSON object per line: a [start] header (the only line carrying
    the [schema] field), one [cell_started] / optional [cell_violated] /
    [cell_finished] per cell, and a [done] footer with the merged
    counters and quantile snapshots.  Lines deliberately carry no
    wall-clock or job-count data, so the [-j N] stream is a permutation
    of the [-j 1] stream: [sort]ed files compare byte-equal. *)

val start_event : config -> Exsel_obs.Json.t
(** [{ schema: "exsel-events/1"; event: "start"; kind: "conformance";
    algos; regimes; seeds; k; cells }]. *)

val event_json : event -> Exsel_obs.Json.t
(** [cell_started]: [{ event; cell; algo; regime }];
    [cell_violated]: [{ event; cell; algo; regime; seed; failure }];
    [cell_finished]: [{ event; cell; algo; regime; seeds_run; commits;
    max_steps; crashed; ok; quantiles }] where [quantiles] is
    {!Exsel_obs.Metrics.quantiles_json} of the cell registry. *)

val done_event : report -> Exsel_obs.Json.t
(** [{ event: "done"; cells; violations; metrics }] with [metrics] the
    compact {!Exsel_obs.Metrics.summary_json} of the merged registry. *)

val pp_summary : Format.formatter -> report -> unit
(** Human-readable matrix: one line per cell, violations expanded. *)
