(** Seeded sampling of candidate lossless expanders (Lemma 3's recipe).

    Lemma 3 proves a graph with the required expansion exists by selecting,
    for each input, Δ uniformly random distinct outputs.  [sample] performs
    exactly that selection from an explicit generator, so a graph is a pure
    function of its seed and dimensions; {!Check} then certifies the
    property we actually rely on. *)

val sample : Exsel_sim.Rng.t -> Params.t -> inputs:int -> l:int -> Bipartite.t
(** [sample rng params ~inputs ~l] draws a graph over [inputs] inputs with
    contention budget [l] ([1 <= l]); dimensions come from [params].
    @raise Invalid_argument if [inputs <= 0] or [l <= 0]. *)

val draw_distinct : Exsel_sim.Rng.t -> degree:int -> outputs:int -> int array
(** [draw_distinct rng ~degree ~outputs] draws [degree] distinct values of
    [\[0, outputs)], uniformly, in draw order ([0 <= degree <= outputs]).
    Below [3 * degree < outputs] it makes one {!Exsel_sim.Rng.int} draw per
    value and redraws a repeat; otherwise it shuffles [\[0, outputs)] with
    {!Exsel_sim.Rng.shuffle} and returns the first [degree] entries.  An
    input's adjacency and {!Check}'s sampled subsets are both drawn here. *)

val sample_dims :
  Exsel_sim.Rng.t -> degree:int -> inputs:int -> outputs:int -> Bipartite.t
(** Sampling with explicit dimensions (used by tests and by the harness to
    probe non-standard shapes).  [degree] is capped at [outputs]. *)
