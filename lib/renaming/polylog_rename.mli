(** PolyLog-Rename(k, N): epoch iteration of Basic-Rename (Theorem 1).

    Epoch 1 runs Basic-Rename(k, N); epoch [j+1] runs Basic-Rename over the
    name range produced by epoch [j].  Ranges contract geometrically
    (paper: ratio ≤ 27/32 per epoch) until a fixpoint of [O(k)] names; a
    process feeds the name it wins in one epoch as its input to the next.

    Bounds: [O(log k (log N + log k log log N))] local steps, [M = O(k)]
    names, [r = O(k log(N/k))] registers.  When [N] is already at the
    fixpoint the construction has zero epochs and renaming is the
    identity — the paper's epoch loop simply does not start. *)

type plan
(** The backend-free, immutable half of an instance: one
    {!type:Basic_rename.plan} per epoch and the contracting ranges. *)

val plan :
  ?params:Exsel_expander.Params.t ->
  rng:Exsel_sim.Rng.t ->
  k:int ->
  inputs:int ->
  unit ->
  plan
(** Certify every epoch's graphs, each epoch on its own split of [rng]. *)

(** The construction over any {!Exsel_backend.Intf.S} substrate. *)
module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    k:int ->
    inputs:int ->
    t
  (** [of_plan (plan ?params ~rng ~k ~inputs ()) mem ~name]. *)

  val of_plan : plan -> memory -> name:string -> t
  (** Allocate a fresh instance's registers in [mem], epoch by epoch. *)

  val epochs : t -> int

  val epoch_ranges : t -> int list
  (** The contracting sequence [N₁ = inputs, N₂, …, M]; for tests of the
      geometric-contraction claim in Theorem 1's proof. *)

  val names : t -> int
  (** Final bound [M] on new names. *)

  val rename : t -> me:int -> int option
  (** Run the epochs, threading names.  [None] means some epoch failed
      (overflow beyond the certified contention, absorbed by the caller's
      reserve or doubling logic). *)

  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
