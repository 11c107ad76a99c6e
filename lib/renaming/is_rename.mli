(** One-shot renaming from an immediate snapshot.

    The order-based renaming that underlies the machinery of
    Borowsky–Gafni [22]: every process deposits its identifier in a single
    {!Exsel_snapshot.Immediate_snapshot} and takes the pair
    [(s, r)] — its view's size and its identifier's rank within the view —
    as its name, encoded as the triangular index [s(s−1)/2 + r − 1].

    Correctness is immediate from the snapshot's properties: views form a
    chain, so equal sizes mean equal views (then ranks differ) and
    different sizes differ — the pair is injective.  Adaptivity comes for
    free: a view only contains actual participants, so with [k]
    contenders all names fall below [k(k+1)/2].

    Costs one immediate-snapshot access: O(n²) reads, [2n] registers —
    a completely different route to the same name range as the
    Moir–Anderson grid (experiment X3 compares them).  The full BG
    subdivision-walking algorithm reaching 2k−1 is out of scope
    (DESIGN.md). *)

(** The renaming over any {!Exsel_backend.Intf.S} substrate. *)
module Make (B : Exsel_backend.Intf.S) : sig
  type t

  val create : B.memory -> name:string -> n:int -> t

  val n : t -> int

  val rename : t -> slot:int -> int
  (** One-shot per slot ([0 .. n−1]); always succeeds (wait-free).  Must
      run inside a backend process. *)

  val steps_bound : t -> int
  (** Worst-case local steps of [rename]: [(n+1)²] — one value write,
      at most [n] levels of one write and [n] reads, and [n] value
      reads. *)
end


val name_bound : contenders:int -> int
(** Exclusive upper bound with [contenders] participants:
    [contenders·(contenders+1)/2]. *)
