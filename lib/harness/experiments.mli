(** The reproduction experiments (DESIGN.md, Section 3).

    Each function regenerates one table or figure of the paper's
    evaluation-equivalent (the theorem claims and the comparisons of the
    introduction), as a {!Table.t} with fixed seeds so runs are
    reproducible.  EXPERIMENTS.md records their outputs against the
    paper's statements. *)

val t1_comparison : unit -> Table.t
(** Measured steps / name bound / registers of MA, snapshot-renaming,
    PolyLog, Efficient and Adaptive at several k (paper §1's comparisons). *)

val t2_polylog : unit -> Table.t
(** Theorem 1 sweep: PolyLog-Rename over k and N; measured-vs-bound ratio. *)

val t3_efficient : unit -> Table.t
(** Theorem 2 sweep: Efficient-Rename steps/k, M = 2k−1, r/k². *)

val t4_almost_adaptive : unit -> Table.t
(** Theorem 3 sweep: k unknown to the code; names stay O(k). *)

val t5_adaptive : unit -> Table.t
(** Theorem 4 sweep: M ≤ 8k − lg k − 1, steps O(k). *)

val t6_store_collect : unit -> Table.t
(** Theorem 5: the four knowledge settings. *)

val t7_lower_bound : unit -> Table.t
(** Theorems 6–7: adversary-forced steps vs 1 + min\{k−2, log₂ᵣ N/2M\}. *)

val t8_repositories : unit -> Table.t
(** Theorems 8–9: repository waste under crashes vs n−1 and n(n−1). *)

val t9_unbounded_naming : unit -> Table.t
(** Theorem 10: exclusive unbounded naming, skipped integers. *)

val f1_majority_progress : unit -> Table.t
(** Lemma 5 series: fraction renamed per Basic-Rename stage. *)

val f2_crossover : unit -> Table.t
(** §1 series: steps as N grows at fixed k — who wins where. *)

val a1_expander_constants : unit -> Table.t
(** Ablation: how the expander constants trade name-range size against
    per-stage success (DESIGN.md, Substitution 1). *)

val a2_certification : unit -> Table.t
(** Ablation: acceptance rate of raw sampled graphs under certification. *)

val a3_reserve_lane : unit -> Table.t
(** Ablation: cost and effect of the deterministic reserve lane. *)

val x1_long_lived : unit -> Table.t
(** Extension: long-lived renaming (acquire/release churn) — exclusive
    holds, range tracking point contention. *)

val x2_message_passing : unit -> Table.t
(** Extension: the message-passing origin of renaming (ABDPR [14]) on the
    {!Exsel_msgnet} substrate. *)

val x3_randomized : unit -> Table.t
(** Extension: randomized loose renaming vs deterministic primitives. *)

val all_named : (string * (unit -> Table.t)) list
(** Every experiment keyed by its table id ("T1" … "X3"), in order.  The
    shared registry behind both the bench driver and [exsel_cli
    experiments], so id filtering and validation agree everywhere. *)

val all : unit -> Table.t list
(** Every table, figure and ablation, in order. *)

val force_adversary :
  Exsel_conformance.Adapter.t ->
  Exsel_conformance.Adapter.params ->
  int * int * Exsel_lowerbound.Adversary.result
(** Theorem 6's adversary (T7, [exsel adversary]) against an adapter's
    instance with parameters [p]: one process per original name in
    [[0, p.names)], [p.k] survivors.  Returns the instance's name bound
    [M], its register count [r] and what the adversary forced. *)

(** {1 Observation capture}

    When observing is on, every renaming row (an adapter's instance
    driven by [Runner.drive] under the uniform regime: T1–T5, F1, F2, A1,
    A3, X3) attaches an {!Exsel_obs.Probe} and an {!Exsel_obs.Span} sink
    and queues an {!observation}; drain the queue after each experiment
    to associate observations with their table.  T6–T9, A2, X1 and X2
    produce no observations. *)

type observation = {
  obs_label : string;  (** run parameters, e.g. ["k=8,N=16384"] *)
  obs_summary : Exsel_sim.Metrics.summary;
  obs_probe : Exsel_obs.Probe.report;
  obs_spans : Exsel_obs.Span.agg list;
}

val set_observing : bool -> unit
(** Toggle observation capture for the {e current domain}.  Enabling
    also clears the domain's queue, so observations left over from a run
    that raised before {!drain_observations} never bleed into the next
    report. *)

val drain_observations : unit -> observation list
(** Return and clear the current domain's queued observations, oldest
    first.  Capture state is domain-local ([Domain.DLS], DESIGN.md §10):
    each domain observes and drains only its own runs. *)

val observation_to_json : observation -> Exsel_obs.Json.t
(** Object with [label summary probe spans]. *)
