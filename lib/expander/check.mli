(** Certification of the unique-neighbour property the algorithms rely on.

    The renaming analysis (Lemmas 2 and 4) needs one consequence of lossless
    expansion: every set [X] of at most [L] active inputs has at least
    ⌈|X|/2⌉ members owning a {e unique neighbour} — an output adjacent to no
    other member of [X].  Such members provably win a register (Lemma 1), so
    each Majority stage renames at least half of its contenders.

    [Check] certifies this property directly: exhaustively over all subsets
    when the search space is small, statistically otherwise (adversarial
    subsets are also probed by hill-climbing in the test suite).

    Each [verify_*] call draws an input's adjacency at most once and counts
    touches in an int array per output.  Both buffers belong to the call:
    nothing is cached in the graph or between calls, so checks on several
    domains share nothing. *)

val unique_neighbour_inputs : Bipartite.t -> int list -> int list
(** [unique_neighbour_inputs g xs] lists the members of [xs] that have at
    least one output adjacent to exactly one member of [xs].  Duplicate
    members of [xs] are rejected with [Invalid_argument]. *)

val neighbourhood_size : Bipartite.t -> int list -> int
(** Number of distinct outputs adjacent to the set — the expansion measure
    [|Γ(X)|] of Lemma 3. *)

val majority_ok : Bipartite.t -> int list -> bool
(** [majority_ok g xs] holds when at least ⌈|xs|/2⌉ members have a unique
    neighbour ([true] on the empty set). *)

val verify_exhaustive : Bipartite.t -> l:int -> (unit, int list) result
(** Check {!majority_ok} for {e every} subset of inputs of size ≤ [l],
    enumerated depth-first in increasing input order; returns the first
    violating subset, its most recently chosen member first.  Each
    subset S ∪ [{v}] is decided from the touches of S, so v's outputs
    are counted only for the subsets below it.  Cost grows as [inputs
    choose l]; guard with {!exhaustive_cost}. *)

val exhaustive_cost : inputs:int -> l:int -> int
(** Number of subsets [verify_exhaustive] would enumerate, the sum over
    x ≤ [l] of ([inputs] choose x): exact whenever it is at most
    [max_int], and [max_int] otherwise. *)

val verify_sampled :
  Exsel_sim.Rng.t -> Bipartite.t -> l:int -> trials:int -> (unit, int list) result
(** Check {!majority_ok} on [trials] uniformly drawn subsets of size exactly
    [min l inputs]; returns the first violating subset found.  Each trial
    draws its [min l inputs] members with {!Gen.draw_distinct}, so a trial
    costs that many draws, not a shuffle of every input, whenever
    [3 * min l inputs < inputs]. *)

val verify_greedy_adversarial :
  Bipartite.t -> l:int -> restarts:int -> seed:int -> (unit, int list) result
(** Adversarial probe: greedily grow subsets that minimise the
    unique-neighbour count (local search with [restarts] random restarts).
    Far more likely to find violations than uniform sampling. *)
