(** Domain-pool executor for native logical processes.

    The native backend maps the paper's asynchronous processes onto a
    bounded pool of OCaml 5 domains: spawned bodies go into a queue, and
    [run ~domains:d] drains it with [min d tasks] domains (the calling
    domain included), so the logical process count can exceed the core
    count.  Within one domain tasks run to completion sequentially —
    there is no preemption inside a task, only true parallelism between
    domains, which is exactly the asynchronous-adversary regime the
    algorithms must tolerate (and strictly weaker than the simulator's
    per-step interleaving).

    Engines are one-shot: spawn, run once, inspect.  The domains are
    not: each calling domain keeps its helper domains parked between
    runs (DESIGN.md §10).  The domain's first multi-domain run starts
    them, later runs wake at most [d - 1] of them, and they are stopped
    and joined when the calling domain exits.  A helper that wakes after
    the queue drained does nothing, and [run] waits only for tasks
    already claimed, never for a helper to wake.

    {b Flight recorder} (DESIGN.md §13): every run records, per task, the
    executing worker (worker [0] is the calling domain, helpers are
    [1 .. domains-1]) and monotonic start/stop nanoseconds, plus the
    engine's own hand-off and wait overhead.  Recording costs two clock
    reads per task and is always on; {!telemetry} exposes the record
    after {!run} returns (including when it raises {!Task_failed}). *)

type t

exception Task_failed of string * exn
(** Re-raised by {!run} after the queue drains: the name of the first
    task that raised, with the original exception. *)

type task_event = {
  te_index : int;  (** spawn-order index of the task *)
  te_name : string;
  te_worker : int;  (** worker that executed it, [0 .. tl_domains-1] *)
  te_start_ns : int64;  (** monotonic clock at task start *)
  te_stop_ns : int64;  (** monotonic clock at task end *)
}

type worker_stat = {
  ws_worker : int;
  ws_tasks : int;  (** tasks this worker drained *)
  ws_busy_ns : int64;  (** summed task wall time on this worker *)
}

type telemetry = {
  tl_domains : int;
      (** workers that ran the batch, the caller included:
          [min domains tasks] (>= 1), or fewer when the runtime refused to
          start a helper *)
  tl_start_ns : int64;  (** monotonic clock entering {!run} *)
  tl_stop_ns : int64;  (** monotonic clock once every task finished *)
  tl_spawn_ns : int64;
      (** the hand-off: waking the helpers, plus [Domain.spawn] when the
          pool grows *)
  tl_join_ns : int64;
      (** the wait for claimed tasks: from the calling domain draining its
          last task to the last task finished *)
  tl_events : task_event array;  (** one per task, in spawn order *)
  tl_workers : worker_stat array;  (** one per worker, in worker order *)
}

val create : unit -> t

val spawn : t -> name:string -> (unit -> unit) -> unit
(** Enqueue a task.  @raise Invalid_argument after {!run}. *)

val tasks : t -> int
(** Number of tasks spawned so far. *)

val telemetry : t -> telemetry option
(** The flight record of the completed run; [None] before {!run}. *)

val wall_ns : telemetry -> int64
(** End-to-end wall clock of the run, [tl_stop_ns - tl_start_ns]. *)

val busy_ns : telemetry -> int64
(** Summed busy time across all workers. *)

val utilization : telemetry -> float
(** [busy_ns / (wall_ns * tl_domains)] in [0, 1]: the fraction of the
    pool's capacity spent inside task bodies (the remainder is hand-off
    and wait overhead plus queue idling); [0] on a zero-length run. *)

val run : t -> domains:int -> unit
(** Execute every task.  With [domains = 1] tasks run sequentially in
    spawn order on the calling domain (deterministic) and no helper is
    involved; with more, tasks are handed out in spawn order but
    interleave in real time.  Returns after all tasks finish, and their
    effects are visible to the caller.

    OCaml 5.1 allows at most 128 live domains.  When [Domain.spawn]
    refuses a helper, the pool stays as it was and the run proceeds on
    the helpers it has; [tl_domains] reports how many workers ran.
    @raise Task_failed if any task raised (first failure wins).
    @raise Invalid_argument if [domains <= 0] or the engine already ran. *)
