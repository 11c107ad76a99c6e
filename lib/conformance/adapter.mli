(** Algorithm adapters: every renaming algorithm behind one runner shape,
    and the one place its instance is built.  The instance is a {!BUILD}
    functor over the backend, so the campaigns, [exsel explore] and the
    native harness run the same instance on their own substrate.

    Each adapter wraps one algorithm as a {!Runner.spec} factory: given a
    seed, a contention [k] and a steps tolerance, it deterministically
    builds an instance with [k] contenders spawned and a quiescence check
    of the algorithm's executable claims:

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
      nobody);
    - {e steps} — every process's local steps stay within
      [steps_multiple ×] the adapter's budget, which is the instance's
      exact structural bound where the implementation exposes one
      ([Majority.steps_bound], [Basic_rename.steps_bound], …) and a
      calibrated multiple of the {!Exsel_renaming.Spec} shape for the
      adaptive constructions whose constants the paper hides.

    The [buggy-ma] adapter is the negative control: a Moir–Anderson-style
    grid built on {!Exsel_renaming.Splitter.enter_racy} (the stop/right
    race removed), which assigns duplicate names under contention.  The
    campaigns must catch it — see [test_conformance.ml]. *)

type built = {
  rename : me:int -> int option;  (** one contender's operation *)
  name_bound : int;  (** claimed exclusive upper bound on names *)
  steps_budget : float;  (** local steps per process, before [steps_multiple] *)
}

(** An instance, written once over any backend: its seeds, register names
    and budgets do not depend on [B], so the simulator, the explorer and
    native domains run the same instance. *)
module type BUILD = functor (B : Exsel_backend.Intf.S) -> sig
  val build : seed:int -> k:int -> B.memory -> built
end

type t = {
  id : string;  (** CLI-stable identifier, e.g. ["efficient"] *)
  claim : string;  (** paper claim exercised, e.g. ["Theorem 2"] *)
  honest : bool;  (** [false] for the negative-control target *)
  completion : Exsel_backend.Claims.completion;
  max_k : int;
      (** most contenders the original-name space admits ([max_int] when
          ids are unbounded) *)
  ids : seed:int -> k:int -> int array;  (** the contenders' original names *)
  build : (module BUILD);
  make : seed:int -> k:int -> steps_multiple:float -> Runner.spec;
      (** [build] on the simulator, [k] contenders on [ids], checked
          against [completion] *)
}

val all : t list
(** The nine honest adapters (compete, ma, attiya, majority, basic,
    polylog, efficient, almost-adaptive, adaptive) followed by the
    [buggy-ma] negative control. *)

val honest : t list
(** [all] without the negative control. *)

val find : string -> t option
(** Look an adapter up by [id]. *)

val ids : unit -> string list
(** All adapter ids, in {!all} order. *)
