(** Fault regimes: seeded adversarial environments for campaign cells.

    A regime turns a seed and the contention [k] into a {!Runner.driver}.
    Since PR 10 every regime is a closed term of the adversary DSL
    ({!Exsel_adversary.Dsl}), compiled on demand; the five stock terms
    cover the fault classes the paper's claims are stated against:

    - ["random"] = [uniform] — seeded uniformly-random scheduling, no
      crashes (the baseline asynchronous adversary);
    - ["crash-half"] = [crash(half, uniform)] — ⌈k/2⌉ seeded victims
      crash at seeded global commit points, random scheduling otherwise;
    - ["crash-on-write"] = [crashw(half, uniform)] — ⌈k/2⌉ seeded
      victims crash the first time their pending operation is a write,
      so half-performed announcements (a posted door value, a partial
      snapshot update) are left behind;
    - ["freeze"] = [freeze(half+2, uniform)] — ⌈k/2⌉ victims are frozen
      mid-protocol for a window of commits while the rest run, then
      thawed (no crashes — tests claims under maximal staleness);
    - ["lockstep"] = [lockstep] — uniform choice among the runnable
      processes with the {e fewest} local steps, keeping all [k]
      contenders inside the same protocol stage — the highest-contention
      schedule a uniform adversary produces.

    The DSL terms compile to drivers making draw-for-draw identical RNG
    requests to the pre-DSL closures, so seeded schedules and campaign
    reports are byte-identical across the rewrite.

    Every driver is deterministic in [(seed, k)]; replaying a recorded
    schedule with {!Exsel_sim.Explore.replay} reproduces the execution
    without the regime. *)

type t = {
  id : string;  (** CLI-stable identifier, e.g. ["crash-half"] *)
  describe : string;  (** one-line description for reports *)
  make : seed:int -> k:int -> Runner.driver;
}

val all : t list
(** The five regimes, in the order listed above. *)

val random : t
(** ["random"] = [uniform], the first of {!all}: it draws exactly as
    [Exsel_sim.Scheduler.random] on a generator seeded [seed] does. *)

val find : string -> t option
(** Look a regime up by [id]. *)

val ids : unit -> string list
(** All regime ids, in {!all} order. *)

val of_expr : id:string -> describe:string -> Exsel_adversary.Dsl.expr -> t
(** Wrap a DSL term as a regime: [make] compiles the term with fresh
    per-execution state for every [(seed, k)]. *)

val of_string : string -> (t, string) result
(** Parse a concrete-grammar adversary expression (CLI [--adversary])
    into a regime whose id is ["dsl:" ^ canonical-form]. *)
