(** Basic-Rename(k, N): staged majority renaming (Lemma 5).

    Runs [⌊lg k⌋ + 1] stages; stage [i] is a {!Majority} instance with
    contention budget [⌈k/2ⁱ⌉] over the same input range [0 .. N−1], on a
    disjoint set of outputs.  Each stage renames at least half of the
    processes entering it, so after the last stage at most one contender
    remains, and a final singleton stage absorbs it.

    Bounds: [O(log k · log N)] local steps, [M = O(k·log(N/k))] new names,
    [r = O(k·log(N/k))] registers. *)

type plan
(** The backend-free, immutable half of an instance: one
    {!type:Majority.plan} per stage. *)

val plan :
  ?params:Exsel_expander.Params.t ->
  rng:Exsel_sim.Rng.t ->
  k:int ->
  inputs:int ->
  unit ->
  plan
(** Certify every stage's graph, each on its own split of [rng]. *)

val names_of_plan : plan -> int
(** The {!S.names} of every instance built from the plan. *)

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
  (** Allocate a fresh instance's registers in [mem], stage by stage. *)

  val stages : t -> int

  val names : t -> int
  (** Bound [M] on new names (sum of stage widths). *)

  val stage_budgets : t -> int list
  (** Contention budgets of the stages, for tests: [k, ⌈k/2⌉, …, 1]. *)

  val rename : t -> me:int -> int option
  (** Run stages in order until a name is won.  [None] only if every stage
      fails, which the expander certification makes not happen for ≤ k
      contenders; composed algorithms treat [None] as overflow. *)

  val rename_traced : t -> me:int -> int option * int
  (** Like [rename] but also reports the index of the stage that succeeded
      (or [stages t] on failure) — used to measure Lemma 5's geometric
      progress (figure F1). *)

  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)

val plan_names :
  ?params:Exsel_expander.Params.t -> k:int -> inputs:int -> unit -> int
(** Predicted {!names} of an instance with these dimensions, computed
    without allocating registers (used by PolyLog's epoch-planning). *)
