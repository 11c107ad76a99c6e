(** Almost-Adaptive(N): renaming with k unknown, N known (Theorem 3).

    Levels [i = 0, 1, …, ⌈lg n⌉] each hold a PolyLog-Rename(2ⁱ, N)
    instance on disjoint registers and a disjoint name interval.  A process
    tries the levels in order until one yields a name; with contention [k],
    level [⌈lg k⌉] is the last one it can need, so final names are bounded
    by the sum of the first [⌈lg k⌉+1] level ranges — O(k) names overall —
    and the step count depends on [k], not [n].

    A Moir–Anderson grid of side [n] sits behind the last level as an
    unconditional wait-freedom reserve; it is not used in any certified
    run and its use is observable via {!reserve_uses}. *)

type plan
(** The backend-free, immutable half of an instance: one
    {!type:Polylog_rename.plan} per level and the reserve grid's side.  The
    reserve's use count is an instance's, not the plan's. *)

val plan :
  ?params:Exsel_expander.Params.t ->
  rng:Exsel_sim.Rng.t ->
  n:int ->
  inputs:int ->
  unit ->
  plan
(** Certify every level's graphs, each level on its own split of [rng]. *)

(** The construction over any {!Exsel_backend.Intf.S} substrate. *)
module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    n:int ->
    inputs:int ->
    t
  (** [n] is the total number of processes (bounds the doubling); [inputs]
      is the known bound [N] on original names.  [create] is
      [of_plan (plan ?params ~rng ~n ~inputs ()) mem ~name]. *)

  val of_plan : plan -> memory -> name:string -> t
  (** Allocate a fresh instance's registers in [mem]: the levels in
      order, then the reserve. *)

  val levels : t -> int

  val rename : t -> me:int -> int
  (** Always succeeds (wait-free).  [me] in [0 .. inputs−1]. *)

  val rename_leveled : t -> me:int -> int * int
  (** Name together with the level that served it ([levels t] for the
      reserve), for adaptivity experiments. *)

  val name_bound_for_contention : t -> k:int -> int
  (** Exclusive upper bound on names assigned when the realised contention
      is [k] (sum of the ranges of levels [0 .. ⌈lg k⌉]) — the paper's
      "M is a function of k" claim, checkable per run. *)

  val reserve_uses : t -> int
  (** Number of processes served by the reserve lane so far. *)

  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
