open Exsel_sim
module R = Exsel_renaming
module Metrics = Exsel_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Claim checking, shared by every adapter                             *)
(* ------------------------------------------------------------------ *)

(* What "everyone is served" means for this algorithm: the wait-free
   constructions name every non-crashed contender; Majority claims only
   Lemma 4's half bound; Compete claims nothing beyond win
   exclusiveness (contested objects may be won by nobody).

   The checks themselves live in Exsel_backend.Claims, backend-free over
   a decision log, so the native harness runs the very same logic
   post hoc; this wrapper snapshots the simulator's per-process state
   (name, status, local-step clock) into outcome records. *)
module Claims = Exsel_backend.Claims

type completion = Claims.completion =
  | All_named
  | Half_renamed
  | Winners_exclusive

let check_claims ~completion ~k ~(results : int option array)
    ~(procs : Runtime.proc array) ~bound ~budget () =
  let outcomes =
    Array.mapi
      (fun i p ->
        {
          Claims.name = Runtime.proc_name p;
          status =
            (match Runtime.status p with
            | Runtime.Done -> Claims.Done
            | Runtime.Crashed -> Claims.Crashed
            | Runtime.Runnable -> Claims.Runnable);
          result = results.(i);
          steps = Runtime.steps p;
        })
      procs
  in
  Claims.check ~completion ~k ~outcomes ~bound ~steps_budget:budget ()

(* ------------------------------------------------------------------ *)
(* Generic spec factory                                                *)
(* ------------------------------------------------------------------ *)

type built = {
  rename : me:int -> int option;
  name_bound : int;
  steps_budget : float;
}

module type BUILD = functor (B : Exsel_backend.Intf.S) -> sig
  val build : seed:int -> k:int -> B.memory -> built
end

(* Contenders carrying distinct original names drawn from [0, bound). *)
let distinct_ids ~seed ~k ~bound =
  let a = Array.init bound Fun.id in
  Rng.shuffle (Rng.create ~seed:(seed + 0x1d5)) a;
  Array.sub a 0 k

let arbitrary_ids ~seed:_ ~k ~stride ~base = Array.init k (fun i -> base + (stride * i))

let own_ids ~seed:_ ~k = Array.init k Fun.id

type t = {
  id : string;
  claim : string;
  honest : bool;
  completion : completion;
  max_k : int;
  ids : seed:int -> k:int -> int array;
  build : (module BUILD);
  make : seed:int -> k:int -> steps_multiple:float -> Runner.spec;
}

let generic ~id ~claim ?(honest = true) ~completion ?(max_k = max_int) ~ids
    build =
  let module Build = (val build : BUILD) in
  let module Sim = Build (Backend) in
  let make ~seed ~k ~steps_multiple =
    let init () =
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let b = Sim.build ~seed ~k mem in
      let ids = ids ~seed ~k in
      let results = Array.make k None in
      let procs =
        Array.init k (fun i ->
            Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
                (* decide - invoke in commit-clock; recorded only when an
                   ambient registry is installed (Campaign, bench P6) and
                   only for operations that actually decide — crashed
                   bodies unwind before reaching the observe. *)
                let invoked = Runtime.commits rt in
                let r = b.rename ~me:ids.(i) in
                (match Metrics.ambient () with
                | None -> ()
                | Some reg ->
                    Metrics.observe
                      (Metrics.histogram reg "exsel_rename_latency_commits"
                         ~labels:[ ("algo", id) ])
                      (Runtime.commits rt - invoked));
                results.(i) <- r))
      in
      let check =
        check_claims ~completion ~k ~results ~procs ~bound:b.name_bound
          ~budget:(steps_multiple *. b.steps_budget)
      in
      { Runner.runtime = rt; check }
    in
    { Runner.algo = id; claim; init }
  in
  { id; claim; honest; completion; max_k; ids; build; make }

(* ------------------------------------------------------------------ *)
(* The adapters                                                       *)
(* ------------------------------------------------------------------ *)

(* Each adapter's instance is written once, as a functor over the
   backend: [generic] applies it to the simulator for [make], the native
   harness applies it to the atomic backend (plain or probed).  Ids,
   seeds, register names and budgets are the same on every backend. *)

(* Fixed original-name-space sizes: large enough that the staged
   constructions have real work to do, small enough that a campaign cell
   stays sub-second. *)
let inputs_small = 256
let inputs_polylog = 1024

module Compete (B : Exsel_backend.Intf.S) = struct
  module C = R.Compete.Make (B)

  let build ~seed:_ ~k:_ mem =
    let c = C.create mem ~name:"c" in
    {
      rename = (fun ~me -> if C.compete c ~me then Some 0 else None);
      name_bound = 1;
      steps_budget = float_of_int R.Compete.steps_bound;
    }
end

module Moir_anderson (B : Exsel_backend.Intf.S) = struct
  module MA = R.Moir_anderson.Make (B)

  let build ~seed:_ ~k mem =
    let ma = MA.create mem ~name:"ma" ~side:k in
    {
      rename = (fun ~me -> MA.rename ma ~me);
      name_bound = R.Moir_anderson.max_name_bound ~contenders:k;
      steps_budget = float_of_int (R.Moir_anderson.steps_bound ~side:k);
    }
end

module Attiya (B : Exsel_backend.Intf.S) = struct
  module A = R.Attiya_renaming.Make (B)

  let build ~seed:_ ~k mem =
    let a = A.create mem ~name:"at" ~slots:k () in
    {
      rename = (fun ~me -> A.rename a ~slot:me);
      name_bound = R.Attiya_renaming.name_bound ~contenders:k;
      (* no structural bound is exposed: each of <= k proposal rounds
         costs one snapshot update+scan, and the Afek et al. scan is
         O(k^2) reads under helping — calibrated with ~2x headroom *)
      steps_budget = 20.0 +. (8.0 *. float_of_int (k * k * k));
    }
end

module Majority (B : Exsel_backend.Intf.S) = struct
  module M = R.Majority.Make (B)

  let build ~seed ~k mem =
    let m =
      M.create ~rng:(Rng.create ~seed:(seed * 13)) mem ~name:"maj" ~l:k
        ~inputs:inputs_small
    in
    {
      rename = (fun ~me -> M.rename m ~me);
      name_bound = M.names m;
      steps_budget = float_of_int (M.steps_bound m);
    }
end

module Basic (B : Exsel_backend.Intf.S) = struct
  module Bas = R.Basic_rename.Make (B)

  let build ~seed ~k mem =
    let b =
      Bas.create ~rng:(Rng.create ~seed:(seed * 7)) mem ~name:"bas" ~k
        ~inputs:inputs_small
    in
    {
      rename = (fun ~me -> Bas.rename b ~me);
      name_bound = Bas.names b;
      steps_budget = float_of_int (Bas.steps_bound b);
    }
end

module Polylog (B : Exsel_backend.Intf.S) = struct
  module P = R.Polylog_rename.Make (B)

  let build ~seed ~k mem =
    let p =
      P.create ~rng:(Rng.create ~seed:(seed * 3)) mem ~name:"pl" ~k
        ~inputs:inputs_polylog
    in
    {
      rename = (fun ~me -> P.rename p ~me);
      name_bound = P.names p;
      steps_budget = float_of_int (P.steps_bound p);
    }
end

module Efficient (B : Exsel_backend.Intf.S) = struct
  module E = R.Efficient_rename.Make (B)

  let build ~seed ~k mem =
    let e = E.create ~rng:(Rng.create ~seed:(seed * 5)) mem ~name:"ef" ~k in
    {
      rename = (fun ~me -> E.rename e ~me);
      name_bound = E.names e;
      (* steps_bound's final-stage term is one representative round per
         contender (see efficient_rename.ml); the true data-dependent
         worst case can exceed it, hence the headroom factor *)
      steps_budget = 2.0 *. float_of_int (E.steps_bound e);
    }
end

module Almost_adaptive (B : Exsel_backend.Intf.S) = struct
  module A = R.Almost_adaptive.Make (B)

  let build ~seed ~k mem =
    let a =
      A.create ~rng:(Rng.create ~seed:(seed * 11)) mem ~name:"aa" ~n:k
        ~inputs:inputs_small
    in
    {
      rename = (fun ~me -> Some (A.rename a ~me));
      name_bound = A.name_bound_for_contention a ~k;
      (* Spec shape with a calibrated constant: the doubling retries
         every level up to ceil(lg k), each a full PolyLog run *)
      steps_budget =
        40.0 *. R.Spec.almost_adaptive_steps ~k ~n_names:inputs_small;
    }
end

module Adaptive (B : Exsel_backend.Intf.S) = struct
  module A = R.Adaptive_rename.Make (B)

  let build ~seed ~k mem =
    let a = A.create ~rng:(Rng.create ~seed:(seed * 17)) mem ~name:"ad" ~n:k in
    {
      rename = (fun ~me -> Some (A.rename a ~me));
      name_bound = R.Adaptive_rename.name_bound_for_contention ~k;
      (* Theorem 4's O(k) with its hidden constant: every level up to
         ceil(lg k) is a full Efficient-Rename attempt whose final
         stage scans O(level-names) per proposal *)
      steps_budget = 60.0 *. float_of_int (k * k);
    }
end

(* Negative control: a Moir-Anderson-style triangular grid built on the
   racy splitter (stop/right race removed).  Two contenders can stop in
   the same cell and adopt the same name — the campaigns must catch it. *)
module Buggy_ma (B : Exsel_backend.Intf.S) = struct
  module S = R.Splitter.Make (B)

  let build ~seed:_ ~k mem =
    let side = k in
    let cells =
      Array.init side (fun r ->
          Array.init (side - r) (fun c ->
              S.create mem ~name:(Printf.sprintf "bug.%d.%d" r c)))
    in
    let rename ~me =
      let rec walk r c =
        if r + c >= side then None
        else
          match S.enter_racy cells.(r).(c) ~me with
          | R.Splitter.Stop -> Some (R.Moir_anderson.name_of_position ~r ~c)
          | R.Splitter.Right -> walk r (c + 1)
          | R.Splitter.Down -> walk (r + 1) c
      in
      walk 0 0
    in
    {
      rename;
      name_bound = R.Moir_anderson.max_name_bound ~contenders:k;
      steps_budget = float_of_int (R.Moir_anderson.steps_bound ~side:k);
    }
end

let all =
  [
    generic ~id:"compete" ~claim:"Lemma 1" ~completion:Winners_exclusive
      ~ids:own_ids (module Compete);
    generic ~id:"ma" ~claim:"MA baseline [41]" ~completion:All_named
      ~ids:(arbitrary_ids ~stride:37 ~base:100)
      (module Moir_anderson);
    generic ~id:"attiya" ~claim:"snapshot (2k-1)-renaming [14, 21]"
      ~completion:All_named ~ids:own_ids (module Attiya);
    generic ~id:"majority" ~claim:"Lemma 4" ~completion:Half_renamed
      ~max_k:inputs_small ~ids:(distinct_ids ~bound:inputs_small)
      (module Majority);
    generic ~id:"basic" ~claim:"Lemma 5" ~completion:All_named
      ~max_k:inputs_small ~ids:(distinct_ids ~bound:inputs_small)
      (module Basic);
    generic ~id:"polylog" ~claim:"Theorem 1" ~completion:All_named
      ~max_k:inputs_polylog ~ids:(distinct_ids ~bound:inputs_polylog)
      (module Polylog);
    generic ~id:"efficient" ~claim:"Theorem 2" ~completion:All_named
      ~ids:(arbitrary_ids ~stride:37 ~base:1000)
      (module Efficient);
    generic ~id:"almost-adaptive" ~claim:"Theorem 3" ~completion:All_named
      ~max_k:inputs_small ~ids:(distinct_ids ~bound:inputs_small)
      (module Almost_adaptive);
    generic ~id:"adaptive" ~claim:"Theorem 4" ~completion:All_named
      ~ids:(arbitrary_ids ~stride:101 ~base:5000)
      (module Adaptive);
    generic ~id:"buggy-ma" ~claim:"negative control (racy splitter grid)"
      ~honest:false ~completion:All_named ~ids:own_ids (module Buggy_ma);
  ]

let honest = List.filter (fun a -> a.honest) all

let find id = List.find_opt (fun a -> a.id = id) all

let ids () = List.map (fun a -> a.id) all
