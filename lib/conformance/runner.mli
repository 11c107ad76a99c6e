(** The common runner interface of the conformance campaigns.

    Every algorithm under campaign is wrapped as a {!spec}: a
    deterministic builder for a fresh {!instance} — a runtime with the
    contenders already spawned — plus a check, evaluated at quiescence,
    of every executable claim the paper makes about that algorithm
    (pairwise-exclusive names, names within the claimed bound,
    termination of non-crashed processes, local steps within the claimed
    shape).  The shape is deliberately the one {!Exsel_sim.Explore}
    already speaks, so a violating run recorded by {!drive} can be
    handed to [Explore.shrink] unchanged for counterexample
    minimization, and to [Explore.replay] for value-carrying trace
    capture. *)

type instance = {
  runtime : Exsel_sim.Runtime.t;
  check : unit -> (unit, string) result;
      (** evaluate every claim at quiescence; [Error msg] names the first
          violated claim.  Must depend only on the quiescent state, not
          on the schedule that reached it, so shrinking preserves
          violations. *)
}

type spec = {
  algo : string;  (** adapter id, e.g. ["efficient"] *)
  claim : string;  (** the paper claim being exercised, e.g. ["Theorem 2"] *)
  init : unit -> instance;
      (** build a fresh instance; must be deterministic (seeds are
          captured at adapter-construction time) so replays reconstruct
          the same execution *)
}

val explorable :
  spec ->
  (unit -> instance * Exsel_sim.Runtime.t)
  * (instance -> Exsel_sim.Runtime.t -> (unit, string) result)
(** [spec] as the [~init]/[~check] pair {!Exsel_sim.Explore.run},
    [Explore.shrink] and [Explore.replay] take: the context is the
    instance, and the check is its claim check. *)

type decision =
  | Commit of Exsel_sim.Runtime.proc
      (** commit this runnable process's pending operation *)
  | Crash of Exsel_sim.Runtime.proc  (** crash this process here *)

type driver = Exsel_sim.Runtime.t -> decision option
(** A fault regime instantiated for one run: called before every
    scheduling decision; [None] relinquishes control, after which the
    runner completes the execution to quiescence in pid order. *)

type outcome = {
  schedule : Exsel_sim.Explore.choice list;
      (** every decision taken, in order — replayable against a fresh
          [init]-ed instance with {!Exsel_sim.Explore.replay} *)
  commits : int;  (** operations committed in the run *)
  max_steps : int;  (** worst-case local steps over the processes *)
  crashed : int;  (** processes crashed by the regime *)
  failure : string option;
      (** the violated claim, if any; liveness failures (commit budget
          exhausted with runnable processes remaining) are reported here
          too *)
}

val drive : ?max_commits:int -> spec -> driver:driver -> outcome
(** [drive spec ~driver] builds a fresh instance, lets [driver] schedule
    (and crash) it decision by decision — recording the schedule — until
    quiescence, then evaluates the instance's check.  [max_commits]
    (default [2_000_000]) bounds the run; exhausting it with runnable
    processes remaining is reported as a liveness failure rather than
    raising. *)
