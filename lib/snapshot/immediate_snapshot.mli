(** One-shot immediate atomic snapshot (Borowsky–Gafni).

    The object behind the paper's reference [22] ("immediate atomic
    snapshots and fast renaming").  Each of [n] processes calls [access]
    at most once, depositing a value and receiving a view — a set of
    (slot, value) pairs — satisfying, for all participants [p], [q]:

    - {e self-inclusion}: [p]'s pair is in [p]'s view;
    - {e containment}: views are totally ordered by inclusion;
    - {e immediacy}: if [q]'s pair is in [p]'s view, then [q]'s view is
      included in [p]'s view.

    Implementation: the classic level-descent construction — a process
    starts at level [n] and descends; at each level it publishes its
    level and scans; it stops at level [ℓ] when at least [ℓ] processes
    sit at levels [≤ ℓ], returning their values.  Wait-free, O(n²) reads,
    [2n] registers. *)

(** The object over any {!Exsel_backend.Intf.S} substrate: the level
    descent only needs atomic registers. *)
module Make (B : Exsel_backend.Intf.S) : sig
  type 'a t

  val create : B.memory -> name:string -> n:int -> 'a t

  val size : 'a t -> int

  val access : 'a t -> me:int -> 'a -> (int * 'a) list
  (** Deposit a value and obtain a view, as [(slot, value)] pairs sorted
      by slot.  One-shot: each slot may call this at most once.  Must run
      inside a backend process. *)
end

