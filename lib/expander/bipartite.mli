(** Simple bipartite graphs with regular input degree.

    Inputs [0 .. inputs-1] stand for original names, outputs
    [0 .. outputs-1] for candidate new names; edges say which names an input
    competes for, in traversal order (paper, Section 2, "Graphs"). *)

type t

val create : inputs:int -> outputs:int -> neighbours:int array array -> t
(** [create ~inputs ~outputs ~neighbours] builds a graph where
    [neighbours.(v)] lists the outputs adjacent to input [v], in the order
    the renaming algorithms traverse them.  All inputs must have the same
    positive number of distinct neighbours, each within bounds.
    @raise Invalid_argument on malformed adjacency. *)

val functional : inputs:int -> outputs:int -> degree:int -> (int -> int array) -> t
(** [functional ~inputs ~outputs ~degree f] builds a graph whose adjacency
    is computed on demand by [f] — Lemma 3's per-input independent choices
    derived from a seed, so graphs over huge name spaces (N = 2¹⁸ and
    beyond) cost nothing until an input is actually traversed.  [f v] must
    be deterministic; each computed adjacency is validated on access. *)

val inputs : t -> int
val outputs : t -> int

val degree : t -> int
(** The common input-degree Δ. *)

val neighbours : t -> int -> int array
(** [neighbours g v] is the adjacency of input [v] in traversal order.
    The returned array must not be mutated. *)

val edges : t -> int
(** Total edge count, [inputs * degree]. *)

val occurs : int -> int array -> int -> bool
(** [occurs w adj n] holds when [w] is one of [adj.(0) .. adj.(n-1)]: the
    distinctness test of adjacency validation and of {!Gen}'s draws. *)
