(** Native rename campaigns: build any conformance adapter's instance on
    {!Backend} through the adapter's own builder
    ({!Exsel_conformance.Adapter.t.build}), run one logical process per
    contender on the {!Engine} domain pool, record a decision log with
    wall-clock latencies, and check the adapter's claims post hoc.

    The semantic gap to the simulator (DESIGN.md §12): there is no
    commit clock, so step budgets are not checked; there is no crash
    injection, so every task runs to completion; and the claim checks
    run after quiescence against the recorded log rather than inside the
    scheduler.  Exclusiveness, the name bounds and the adapter's
    completion rule are contention-independent, so they transfer
    unchanged.

    The flight recorder (DESIGN.md §13) adds three observability layers:
    the engine's per-task/per-domain telemetry rides along in every
    [run]; [~probe:true] reruns the algorithm on
    {!Probe_backend.Make}[ (Backend)] so per-register read/write
    counters are recorded (slower — bench baselines use the plain path);
    and {!trace_doc} renders the record as an [exsel-native-trace/1] /
    Chrome document via {!Exsel_obs.Trace_export.Native}. *)

type reg_stat = {
  rs_name : string;  (** allocation name ({!Backend.register_names}) *)
  rs_reads : int;
  rs_writes : int;
}

type run = {
  algo : string;  (** the adapter id *)
  completion : Exsel_backend.Claims.completion;  (** the adapter's *)
  n : int;  (** contenders (= the algorithm's k, or n for Adaptive) *)
  domains : int;  (** requested pool size (actual: [telemetry.tl_domains]) *)
  seed : int;
  ids : int array;  (** original names, one per process *)
  names : int option array;  (** decision log, index-aligned with [ids] *)
  latency_ns : int64 array;  (** per-process wall-clock rename latency *)
  wall_ns : int64;  (** end-to-end wall clock of the engine run *)
  bound : int;  (** claimed exclusive upper bound on names *)
  registers : int;  (** atomic cells allocated *)
  telemetry : Engine.telemetry;  (** the engine's flight record *)
  warmup : int;  (** throwaway runs executed before the measured one *)
  warmup_ns : int64;  (** total wall clock of the warmup runs *)
  reg_stats : reg_stat list;
      (** per-register access counts, aggregated by allocation name in
          allocation order; [[]] unless run with [~probe:true] *)
}

val ns_to_int : int64 -> int
(** Clamp a nanosecond count into [[0, max_int]] — [Int64.to_int] wraps
    on platforms where the value exceeds the int range; quantiles and
    JSON fields want saturation instead. *)

val run :
  ?warmup:int ->
  ?probe:bool ->
  algo:Exsel_conformance.Adapter.t ->
  n:int ->
  domains:int ->
  seed:int ->
  unit ->
  run
(** Build and execute one native campaign of [algo] with [n] contenders
    on the adapter's ids and seeds.  [domains] bounds real parallelism;
    the [n] logical processes are work-queued onto the pool.
    [warmup] (default 0) first executes that many complete throwaway
    runs of the same cell — warming code paths, allocator and frequency
    scaling, and starting the calling domain's parked helper domains, so
    the measured run only hands off to them — and reports their total
    cost in [warmup_ns].  [probe] (default false) runs the measured
    campaign on the instrumented backend, filling [reg_stats]; leave it
    off for baseline-gated benchmarks.
    @raise Invalid_argument if [n <= 0], [n > algo.max_k],
    [domains <= 0] or [warmup < 0].
    @raise Engine.Task_failed if a process body raised. *)

val decided : run -> int
(** Number of processes holding a name: [n] for the wait-free
    constructions, possibly fewer for majority (Lemma 4's half bound) and
    compete (at most one winner). *)

val hot_registers : run -> reg_stat list
(** [reg_stats] ranked by total accesses (reads + writes), hottest
    first; [[]] when the run was not probed. *)

val check : run -> (unit, string) result
(** The paper's claims over the decision log: termination,
    exclusiveness, name bound, and completion under the adapter's rule
    ([r.completion]).  [Error msg] carries the same message format the
    conformance campaigns print. *)

val trace_doc : ?label:string -> run -> Exsel_obs.Trace_export.Native.doc
(** The run's flight record as a wall-clock trace document (default
    label ["<algo> n=<n> domains=<d> seed=<s>"]): feed it to
    {!Exsel_obs.Trace_export.Native.to_json} for the
    [exsel-native-trace/1] artifact or
    {!Exsel_obs.Trace_export.Native.chrome} for Perfetto. *)

val observe : Exsel_obs.Metrics.t -> run -> unit
(** Record the run into a registry, all labelled
    [algo=<algo>, backend=native]: per-process latencies into the
    [exsel_rename_latency_ns] histogram (clamped via {!ns_to_int});
    decided-vs-spawned as the separate [exsel_rename_decisions_total] /
    [exsel_rename_spawned_total] counters; [exsel_rename_wall_ns],
    [exsel_engine_spawn_ns] (the hand-off to the helpers) and
    [exsel_engine_join_ns] (the wait for claimed tasks) gauges;
    per-domain [exsel_domain_tasks_total] / [exsel_domain_busy_ns_total]
    counters labelled [domain=<w>]; [exsel_rename_warmup_ns] when warmup
    ran; and — for probed runs — per-register
    [exsel_register_reads_total] / [exsel_register_writes_total]
    counters labelled [register=<allocation name>]. *)
