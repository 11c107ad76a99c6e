(** Algorithm adapters: every renaming algorithm behind one runner shape,
    and the one place its instance is built, from one {!params} record.
    The instance is a {!BUILD} functor over the backend, so the
    campaigns, [exsel explore], the reproduction tables, [exsel rename],
    [exsel adversary] and native domains run the same instance.

    Each adapter checks its algorithm's executable claims at quiescence:

    - {e exclusiveness} — no two processes hold the same name (for
      Compete: at most one winner);
    - {e name bound} — every assigned name lies in [[0, M)] for the
      claimed [M] (2k−1 for Efficient, 8k−lg k−1 for Adaptive, the
      instance's [names] for the staged constructions, k(k+1)/2 for the
      MA baseline);
    - {e completion} — every non-crashed contender terminates holding a
      name (Majority instead claims Lemma 4's weaker bound: winners plus
      crashed contenders cover at least half the contenders; Compete
      claims only win exclusiveness, as contested objects may be won by
      nobody; Chain claims no completion at all);
    - {e steps} — every process's local steps stay within
      [steps_multiple ×] the adapter's budget, which is the instance's
      exact structural bound where the implementation exposes one
      ([Majority.steps_bound], [Basic_rename.steps_bound], …) and a
      calibrated multiple of the {!Exsel_renaming.Spec} shape, in the
      instance's real size, for the constructions whose constants the
      paper hides.

    The [buggy-ma] adapter is the negative control: a Moir–Anderson-style
    grid built on {!Exsel_renaming.Splitter.enter_racy} (the stop/right
    race removed), which assigns duplicate names under contention.  The
    campaigns must catch it — see [test_conformance.ml]. *)

type params = {
  seed : int;  (** the instance's own generator seed *)
  k : int;  (** the contention the instance is built for *)
  names : int;  (** [N]: original names lie in [[0, N)] *)
  n : int;  (** total processes, for the constructions that do not know [k] *)
  preset : Exsel_expander.Params.t;  (** expander dimensioning *)
  chain : int;  (** Chain's name count *)
}

val params :
  ?n:int ->
  ?preset:Exsel_expander.Params.t ->
  ?chain:int ->
  seed:int ->
  k:int ->
  names:int ->
  unit ->
  params
(** [n] defaults to [k], [preset] to {!Exsel_expander.Params.practical}
    and [chain] to [2k − 1]. *)

type built = {
  rename : me:int -> int option;  (** one contender's operation *)
  name_bound : int;  (** claimed exclusive upper bound on names *)
  steps_budget : float;  (** local steps per process, before [steps_multiple] *)
  internals : unit -> (string * int) list;
      (** counters read after a run: Efficient's ["M'"], the adaptive
          constructions' ["reserve"] uses and ["top level"], Basic's
          ["stages"], ["budget.i"] and ["stage.i"] renamed ([i = stages]:
          unserved),
          Majority's ["degree"] *)
}

(** An instance, written once over any backend: its seeds, register names
    and budgets do not depend on [B], so the simulator, the explorer and
    native domains run the same instance.

    [build p] may do work before it takes the memory; the expander
    adapters certify their {!type:Exsel_renaming.Majority.plan}s there.  That
    work must be pure and its result immutable: one [build p] then
    serves many memories, one per instance, on any domain.  Whatever a
    run changes (registers, counters such as Basic's per-stage counts or
    Almost-Adaptive's top level) is made after the memory is taken. *)
module type BUILD = functor (B : Exsel_backend.Intf.S) -> sig
  val build : params -> B.memory -> built
end

type completion = Exsel_backend.Claims.completion =
  | All_named
  | Half_renamed
  | Winners_exclusive

type t = {
  id : string;  (** CLI-stable identifier, e.g. ["efficient"] *)
  claim : string;  (** paper claim exercised, e.g. ["Theorem 2"] *)
  honest : bool;  (** [false] for the negative-control target *)
  completion : completion option;  (** [None]: no completion claim *)
  max_k : int;
      (** most contenders the campaigns' original-name space admits
          ([max_int] when ids are unbounded) *)
  campaign : seed:int -> k:int -> params;
      (** the campaigns' instance, derived from the campaign seed *)
  ids : seed:int -> k:int -> int array;  (** the campaigns' original names *)
  build : (module BUILD);
  instance : params -> Exsel_sim.Memory.t -> built;  (** [build] on the simulator *)
  make : seed:int -> k:int -> steps_multiple:float -> Runner.spec;
      (** the campaigns' instance on the simulator, [k] contenders on
          [ids], checked against the claims.  [make] builds nothing: the
          spec's first [init] runs [instance p]'s work before the memory,
          under a mutex, and every [init] allocates a fresh instance from
          it *)
}

val all : t list
(** The nine {!honest} adapters, then chain, randomized and is-rename,
    then the [buggy-ma] negative control. *)

val honest : t list
(** The default campaign's matrix: compete, ma, attiya, majority, basic,
    polylog, efficient, almost-adaptive, adaptive. *)

val find : string -> t option
(** Look an adapter up by [id]. *)

val ids : unit -> string list
(** All adapter ids, in {!all} order. *)

val check :
  completion:completion option ->
  k:int ->
  outcomes:Exsel_backend.Claims.outcome array ->
  bound:int ->
  ?steps_budget:float ->
  unit ->
  (unit, string) result
(** {!Exsel_backend.Claims.check} under an adapter's completion rule:
    [None] checks termination, exclusiveness, the name bound and steps
    only. *)

(** {1 One run on the simulator} *)

type run = {
  outcome : Runner.outcome;
  runtime : Exsel_sim.Runtime.t;  (** the quiescent runtime *)
  results : int option array;  (** each contender's name, in [ids] order *)
  built : built;
}

val run :
  ?sinks:(Exsel_sim.Runtime.t -> unit -> unit) ->
  ?max_commits:int ->
  ?completion:completion option ->
  t ->
  (Exsel_sim.Memory.t -> built) ->
  ids:int array ->
  driver:Runner.driver ->
  run
(** [run a build ~ids ~driver] builds one instance with [build] (usually
    [a.instance p]), spawns a contender per original name in [ids] and
    drives it with {!Runner.drive}, checked against [a]'s claims with
    the exact steps budget; [completion] overrides [a]'s rule.  [sinks
    rt] runs before the contenders spawn (span sinks attach there), the
    function it returns after (probes attach there). *)
