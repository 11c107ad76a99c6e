(** Chain-Rename: a register-lean strawman for the lower-bound experiments.

    Processes compete for names 0, 1, 2, … in order through a chain of
    {!Compete} objects and adopt the first name they win.  Names are
    exclusive unconditionally (Lemma 1), and the construction uses only
    [2·m] registers for [m] names — the fewest of any algorithm in this
    repository — which is exactly what makes the lower bound of Theorem 6
    bind: with [r] this small, [1 + log₂ᵣ(N/2M)] forces multiple steps.

    It is {e not} a wait-free renaming solution: under contention a
    Compete object can be won by nobody, so a process may fail the whole
    chain ([rename] returns [None]).  The experiment harness uses it to
    demonstrate the register/time trade-off; production code should use
    the certified algorithms. *)

(** The chain over any {!Exsel_backend.Intf.S} substrate. *)
module Make (B : Exsel_backend.Intf.S) : sig
  type t

  val create : B.memory -> name:string -> m:int -> t
  (** A chain of [m] names using [2m] registers. *)

  val names : t -> int

  val rename : t -> me:int -> int option
  (** Walk the chain; [Some i] is the first name won.  At most [5m] local
      steps. *)

  val steps_bound : t -> int
end

