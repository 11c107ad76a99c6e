(** Majority(ℓ, N): expander-traversal majority renaming (Lemma 4).

    Names [0 .. N−1] are the inputs of a bipartite graph sampled per
    Lemma 3; outputs are candidate new names, each guarded by a
    {!Compete} pair.  A process walks the Δ neighbours of its input in
    order, competing for each, and adopts the first output it wins.

    Guarantees, given the graph's unique-neighbour property (certified by
    {!Exsel_expander.Check}): with at most ℓ contenders holding distinct
    inputs, at least ⌈half⌉ of them win, every winner's name is exclusive
    (unconditionally, by Lemma 1), and each process takes at most
    [5Δ = O(log N)] local steps.  Uses [2·M] registers where
    [M = O(ℓ log(N/ℓ))] is the output count. *)

type plan
(** The backend-free, immutable half of an instance: its certified graph
    and contention budget.  One plan backs any number of instances, on
    any backend and any domain. *)

val plan :
  ?params:Exsel_expander.Params.t ->
  rng:Exsel_sim.Rng.t ->
  l:int ->
  inputs:int ->
  unit ->
  plan
(** [plan ~rng ~l ~inputs ()] samples and certifies the graph for
    contention budget [l] over original names [0 .. inputs−1], drawing
    only on [rng].  [params] defaults to
    {!Exsel_expander.Params.practical}. *)

val names_of_plan : plan -> int
(** The {!S.names} of every instance built from the plan. *)

(** The construction over any {!Exsel_backend.Intf.S} substrate.  Graph
    sampling stays on the deterministic simulator RNG on every backend so
    a seed names the same expander everywhere. *)
module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    l:int ->
    inputs:int ->
    t
  (** [create ?params ~rng mem ~name ~l ~inputs] is
      [of_plan (plan ?params ~rng ~l ~inputs ()) mem ~name]. *)

  val of_plan : plan -> memory -> name:string -> t
  (** Allocate a fresh instance's registers in [mem] for the plan's
      graph. *)

  val graph : t -> Exsel_expander.Bipartite.t
  val contention_budget : t -> int

  val names : t -> int
  (** The bound [M] on new names (the graph's output count). *)

  val rename : t -> me:int -> int option
  (** Traverse and compete; [Some w] is the captured output index.
      [me] must lie in [0 .. inputs−1].  Must run inside a backend process,
      once per process. *)

  val steps_bound : t -> int
  (** Worst-case local steps: [5·Δ]. *)

  val registers : t -> int
  (** Registers allocated: [2·names]. *)
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
