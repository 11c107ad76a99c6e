(** Trace export: [exsel-trace/1] JSON and Chrome trace-event JSON.

    Two serializations of a value-carrying {!Exsel_sim.Trace}:

    - {!to_json} emits the canonical machine-readable document (schema
      [exsel-trace/1]): every event with its index, commit clock, process,
      kind, register and rendered value — the artifact CI archives next to
      a counterexample.
    - {!chrome} emits Chrome trace-event JSON loadable in Perfetto
      ([ui.perfetto.dev]) or [chrome://tracing]: one track (thread) per
      process, commits and lifecycle transitions as instant events, and —
      when a {!Span} sink is supplied — algorithm phases as duration
      events on the same tracks.

    Timestamps: the simulator's only clock is the global commit counter
    ({!Exsel_sim.Runtime.commits}).  Chrome timestamps are microseconds,
    so one commit maps to 1000 µs ("1 ms per commit") — zoomable in
    Perfetto without sub-microsecond rounding artifacts.  Spans record the
    same clock, so phase bars align with the commits they cover. *)

module Trace = Exsel_sim.Trace

val to_json : ?label:string -> Trace.event list -> Json.t
(** [exsel-trace/1] document:
    [{ schema; label?; length; processes: [{pid; proc}];
       events: [{i; t; pid; proc; kind; reg?; reg_name?; value?; step}] }].
    [kind] is one of ["read"], ["write"], ["spawn"], ["done"], ["crash"];
    the register fields are present only on reads/writes. *)

val chrome : ?spans:Span.t -> ?us_per_commit:int -> Trace.event list -> Json.t
(** Chrome trace-event document ([{displayTimeUnit; traceEvents}]):
    process/thread metadata records naming one track per pid, ["i"]
    (instant) events for every trace event, and — with [?spans] — ["X"]
    (complete) events for every closed span node.  All events live in
    Chrome pid 1; the simulator pid becomes the Chrome tid.
    [us_per_commit] (default 1000) scales the commit clock to trace
    microseconds; pick a smaller scale to keep dense campaign traces
    readable in Perfetto.
    @raise Invalid_argument if [us_per_commit <= 0]. *)

val write_file : string -> Json.t -> unit
(** Serialize compactly to a file (trailing newline included). *)

(** Wall-clock trace export for the native backend (DESIGN.md §13).

    The simulator's exports above are commit-clock; the native engine's
    flight recorder stamps real monotonic nanoseconds instead, and the
    track unit changes from logical process to {e domain}: one track per
    pool worker, each rename span attributed to the worker that executed
    it.  All timestamps are nanoseconds relative to the engine run
    start, so they are small, non-negative, and monotone per worker. *)
module Native : sig
  type span = {
    sp_track : int;  (** executing worker, [0 .. domains-1] *)
    sp_name : string;  (** task name, e.g. ["p3"] *)
    sp_start_ns : int;  (** relative to the run start *)
    sp_stop_ns : int;
  }

  type doc = {
    nd_label : string option;
    nd_domains : int;  (** pool workers (tracks) *)
    nd_spawn_ns : int;
        (** hand-off to the helper domains, [Domain.spawn] included when
            the pool grew *)
    nd_join_ns : int;  (** the caller's wait for claimed tasks *)
    nd_wall_ns : int;  (** end-to-end engine wall clock *)
    nd_spans : span list;  (** in task spawn order *)
  }

  val to_json : doc -> Json.t
  (** The [exsel-native-trace/1] document:
      [{ schema; label?; clock = "wall_ns"; domains; tasks; spawn_ns;
         join_ns; wall_ns;
         workers: [{worker; tasks; busy_ns; utilization_ppm}];
         spans: [{name; worker; start_ns; stop_ns}] }].
      [workers] has one row per track, idle workers included. *)

  val chrome : doc -> Json.t
  (** Chrome trace-event JSON for Perfetto: one thread per domain
      (worker 0 labelled as the caller), every task as an ["X"] duration
      event on its executing worker's track (nanosecond args preserved;
      sub-microsecond tasks keep a 1 µs sliver), and the engine's spawn
      and join overheads as ["X"] events on track 0. *)
end
