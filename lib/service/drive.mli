(** The one driver behind the service's load generators.

    A campaign is a (load × seed) matrix of independent {e cells}, each
    driving a fresh service instance — router, per-shard cores, per-shard
    runtimes (sim) or a per-round engine (native) — through [rounds]
    rounds.  A {e load} ([Churn]'s regimes, [Workload]'s arrival
    patterns) is only a per-round planner: it walks the session ledger
    and calls {!arrive}, {!acquire}, {!release}, {!crash} and {!depart}.
    Everything else lives here, once:

    - each round recycles worn-out quiescent shards, runs the planner,
      spawns the whole batch before any commit, and executes it — on the
      simulator one committed register operation at a time, interleaved
      across all shard runtimes by a seeded runnable-weighted draw (or a
      compiled crash-free {!Exsel_adversary.Dsl} term within the drawn
      shard); natively on real domains;
    - at round quiescence the same claim checks run for every load:
      {e exclusive holds} (live leases never collide on a (shard, name)),
      {e generation reuse} (a (shard, name, generation) lease is issued
      at most once, across recycles), the {e adaptive bound} (an
      acquired local name is below [2·k̂ − 1] for a harness-side upper
      bound k̂ on the acquire's point contention), {e no leak} (a
      released slot publishes nothing) and {e crash pin} (a crashed
      holder's name stays published); entry overflow, wait-freedom and
      the liveness budget are reported the same way;
    - cells own private {!Exsel_obs.Metrics} registries merged in matrix
      order, so [run ~jobs] is byte-identical to a sequential run. *)

(** {2 Configuration} *)

type backend = Sim | Native of { domains : int }

val backend_name : backend -> string

type config = {
  shards : int;
  cap : int;  (** per-shard session capacity and entry slots *)
  rounds : int;
  entry : Core.entry_algo;
  seeds : int list;
  backend : backend;
  max_commits : int;  (** per-round liveness budget (sim) *)
  adversary : Exsel_adversary.Dsl.expr option;
      (** sim-only within-shard commit scheduler: each commit still picks
          a shard by the uniform runnable-weighted draw, then the
          compiled term chooses the process inside it.  Must be
          {!Exsel_adversary.Dsl.crash_free}.  [None] keeps the uniform
          interleave bit-for-bit. *)
}

val default : config
(** 2 shards of cap 4, 6 rounds, Efficient entry, seeds 1–3, simulator. *)

val validate : config -> (unit, string) result
(** Positive sizes, a non-empty seed list, positive native [domains],
    and — when an adversary term is named — a sim backend and a
    crash-free term. *)

(** {2 Results} *)

type shard_summary = {
  ss_shard : int;
  ss_epochs : int;  (** core incarnations (recycles + 1) *)
  ss_admitted : int;  (** admissions in the current incarnation *)
  ss_held_max : int;
  ss_occupancy_max : int;
}

type cell = {
  c_load : string;  (** the regime or pattern id *)
  c_seed : int;
  c_rounds : int;  (** rounds completed *)
  c_arrivals : int;  (** offered sessions ([c_admitted + c_rejects]) *)
  c_admitted : int;
  c_joins : int;
  c_acquires : int;
  c_releases : int;
  c_crashes : int;
  c_spills : int;
  c_rejects : int;  (** arrivals no shard could admit *)
  c_recycles : int;
  c_commits : int;  (** sim: committed register operations; native: 0 *)
  c_wall_ns : int;  (** native: summed engine wall time; sim: 0 *)
  c_max_name : int;  (** largest global name issued; [-1] if none *)
  c_shards : shard_summary list;
  c_violations : string list;
  c_metrics : Exsel_obs.Metrics.t;
}

type 'cfg report = {
  r_config : 'cfg;
  r_cells : cell list;  (** matrix order: loads × seeds *)
  r_violations : int;
  r_metrics : Exsel_obs.Metrics.t;  (** cells merged in matrix order *)
}

type event =
  | Cell_started of { index : int; load : string; seed : int }
  | Cell_finished of { index : int; cell : cell }

(** {2 Planners} *)

type lease = { l_shard : int; l_local : int; l_name : int; l_gen : int }

type phase =
  | Joining
  | Idle
  | Acquiring
  | Holding of lease * int  (** the lease and the round it is due back *)
  | Releasing of lease * bool  (** depart once the release completes *)
  | Departed
  | Crashed of { pinned : lease option; participant : bool }
      (** [pinned]: crashed holding this lease; [participant]: its
          component may be published, so it counts in k̂ *)

type session = private {
  s_client : int;
  s_shard : int;
  s_epoch : int;  (** shard incarnation the session joined *)
  mutable s_slot : int option;
  mutable s_phase : phase;
}

type ctx
(** One cell's service instance and session ledger. *)

val sessions : ctx -> session list
(** Every session of the cell, in creation order. *)

val rng : ctx -> Exsel_sim.Rng.t
(** The cell's stream: the planner's draws share it with the simulator's
    commit picks. *)

val sim : ctx -> bool
(** The simulator can crash a session mid-acquire; natively a crash can
    only happen between operations. *)

val arrive : ?prefer:int -> ctx -> unit
(** One arrival: route it (rejects and spills are counted by the
    router), admit it and spawn its entry join. *)

val acquire : ?crash_after:int -> ?hold:int -> ctx -> session -> unit
(** Spawn an acquire for an idle session.  [hold] is the number of rounds
    the lease is kept (recorded in [Holding]); [crash_after] (sim only)
    crashes the acquire that many round commits in. *)

val release : ctx -> session -> depart:bool -> unit
(** Spawn the release of a holding session's lease. *)

val crash : ctx -> session -> unit
(** Crash a session now: a holder pins its lease, an idle session leaves
    nothing published. *)

val depart : ctx -> session -> unit
(** An idle session leaves the service. *)

(** {2 Drivers} *)

type spec = {
  name : string;  (** module prefix of [Invalid_argument] messages *)
  label : string;  (** metric label naming the load *)
  rng_of_seed : seed:int -> Exsel_sim.Rng.t;
      (** stream version of the cell and core streams *)
  core_seed : int;
      (** core stream seed: [seed·core_seed + shard + 1000·epoch] *)
  client : int -> int;  (** client identifier of the n-th session *)
  latency_prefix : string;
      (** histograms [<prefix>{join,acquire,release}_latency_{commits,ns}] *)
  join_latency : bool;
  counters : (string * (cell -> int)) list;  (** per cell, load-labelled *)
  gauges : (string * (shard_summary -> int)) list;  (** per shard *)
  cells_counter : string;
}

type load = { id : string; salt : int; plan : ctx -> round:int -> unit }
(** The cell stream is seeded [seed·1 000 003 xor salt]. *)

val run :
  ?jobs:int ->
  ?on_event:(event -> unit) ->
  spec ->
  config ->
  load list ->
  'cfg ->
  'cfg report
(** Run the (load × seed) matrix of a valid config; [jobs > 1] shards
    cells over {!Exsel_sim.Pool.map}.  [on_event] may fire from worker
    domains.  The last argument, the caller's own config, is echoed as
    [r_config]. *)

val shard_traces :
  spec ->
  config ->
  load ->
  seed:int ->
  (int * int * Exsel_sim.Trace.event list) list
(** Re-run one simulator cell with {!Exsel_sim.Trace} attached to every
    shard runtime; returns [(shard, commits, events)] per shard.
    @raise Invalid_argument on a native config (traces are commit-clock). *)

(** {2 Rendering helpers} *)

val done_event : 'cfg report -> Exsel_obs.Json.t

val pp_cells :
  width:int ->
  (Format.formatter -> cell -> unit) ->
  Format.formatter ->
  'cfg report ->
  unit
(** The per-cell lines of a summary — the given [ok] line, or [FAIL] with
    the load id padded to [width] and every violation — then the
    violation total. *)
