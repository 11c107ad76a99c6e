(** Randomized loose renaming, in the style the paper surveys [10–12].

    Each process draws private coins to probe slots of a name table of
    size [(1+ε)·k] in random order, competing for each probed slot with
    {!Compete}; it adopts the first slot it wins.  Exclusiveness is
    unconditional (Lemma 1); termination holds whenever fewer processes
    than slots participate (every process's permutation eventually reaches
    a slot nobody else ever wins, and a solo contender on a slot wins it —
    but a slot contended by several may be won by nobody, which is why the
    table is oversized).  The expected number of probes per process is
    O(1/ε) at full contention — compare with the deterministic
    alternatives in experiment X3.

    Coins are drawn from a generator derived from the instance seed and
    the caller's identifier, so executions stay reproducible: "randomized"
    refers to the algorithm's use of private coins, not to
    irreproducibility of the simulation. *)

(** The table over any {!Exsel_backend.Intf.S} substrate: the coins are
    pure OCaml, drawn by each caller on its own generator. *)
module Make (B : Exsel_backend.Intf.S) : sig
  type t

  val create : B.memory -> name:string -> seed:int -> k:int -> epsilon:float -> t
  (** Table of [⌈(1+epsilon)·k⌉] slots (2 registers each).
      @raise Invalid_argument if [k <= 0] or [epsilon <= 0]. *)

  val slots : t -> int
  (** Table size — the bound [M] on names. *)

  val rename : t -> me:int -> int option
  (** Probe slots in a private random order; [Some slot] on the first win,
      [None] only if every slot was probed and lost (possible only when
      contention reaches the table size).  Must run inside a backend
      process, once per process. *)

  val probes_bound : t -> int
  (** Worst-case probes of one call (the table size). *)
end

