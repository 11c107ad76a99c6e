open Exsel_sim
module R = Exsel_renaming
module Metrics = Exsel_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Claim checking, shared by every adapter                             *)
(* ------------------------------------------------------------------ *)

(* What "everyone is served" means for this algorithm: the wait-free
   constructions name every non-crashed contender; Majority claims only
   Lemma 4's half bound; Compete claims nothing beyond win
   exclusiveness (contested objects may be won by nobody); Chain claims
   no completion at all.

   The checks themselves live in Exsel_backend.Claims, backend-free over
   a decision log, so the native harness runs the very same logic
   post hoc; [outcome] snapshots the simulator's per-process state
   (name, status, local-step clock) into outcome records. *)
module Claims = Exsel_backend.Claims

type completion = Claims.completion =
  | All_named
  | Half_renamed
  | Winners_exclusive

(* No completion claim is Lemma 4's half bound over zero contenders,
   which demands no name. *)
let check ~completion ~k ~outcomes ~bound ?steps_budget () =
  let completion, k = match completion with Some c -> (c, k) | None -> (Half_renamed, 0) in
  Claims.check ~completion ~k ~outcomes ~bound ?steps_budget ()

let outcome (results : int option array) i p =
  {
    Claims.name = Runtime.proc_name p;
    status =
      (match Runtime.status p with
      | Runtime.Done -> Claims.Done
      | Runtime.Crashed -> Claims.Crashed
      | Runtime.Runnable -> Claims.Runnable);
    result = results.(i);
    steps = Runtime.steps p;
  }

(* ------------------------------------------------------------------ *)
(* Instances and runs                                                  *)
(* ------------------------------------------------------------------ *)

type params = {
  seed : int;
  k : int;
  names : int;
  n : int;
  preset : Exsel_expander.Params.t;
  chain : int;
}

let params ?n ?(preset = Exsel_expander.Params.practical) ?chain ~seed ~k ~names
    () =
  {
    seed;
    k;
    names;
    n = Option.value n ~default:k;
    preset;
    chain = Option.value chain ~default:((2 * k) - 1);
  }

type built = {
  rename : me:int -> int option;
  name_bound : int;
  steps_budget : float;
  internals : unit -> (string * int) list;
}

module type BUILD = functor (B : Exsel_backend.Intf.S) -> sig
  val build : params -> B.memory -> built
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
  completion : completion option;
  max_k : int;
  campaign : seed:int -> k:int -> params;
  ids : seed:int -> k:int -> int array;
  build : (module BUILD);
  instance : params -> Memory.t -> built;
  make : seed:int -> k:int -> steps_multiple:float -> Runner.spec;
}

(* One instance on a fresh runtime with a contender spawned per original
   name in [ids], and its claim check.  Sinks attach around the spawns:
   span sinks must be live before the bodies run to their first
   suspension, probes attach after so their initial scan sees the whole
   pending burst. *)
let spawn_instance ?(sinks = fun _ () -> ()) ~id ~completion ~steps_multiple
    build ids =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let b = build mem in
  let spawned = sinks rt in
  let k = Array.length ids in
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
  spawned ();
  let check () =
    check ~completion ~k ~outcomes:(Array.mapi (outcome results) procs)
      ~bound:b.name_bound ~steps_budget:(steps_multiple *. b.steps_budget) ()
  in
  ({ Runner.runtime = rt; check }, b, results)

type run = {
  outcome : Runner.outcome;
  runtime : Runtime.t;
  results : int option array;
  built : built;
}

let run ?sinks ?max_commits ?completion a build ~ids ~driver =
  let completion = Option.value completion ~default:a.completion in
  let last = ref None in
  let init () =
    let inst, b, results =
      spawn_instance ?sinks ~id:a.id ~completion ~steps_multiple:1.0 build ids
    in
    last := Some (inst.Runner.runtime, b, results);
    inst
  in
  let outcome =
    Runner.drive ?max_commits { Runner.algo = a.id; claim = a.claim; init } ~driver
  in
  match !last with
  | Some (runtime, built, results) -> { outcome; runtime; results; built }
  | None -> assert false (* drive builds exactly one instance *)

let generic ~id ~claim ?(honest = true) ~completion ?(max_k = max_int) ~campaign
    ~ids build =
  let module Build = (val build : BUILD) in
  let module Sim = Build (Backend) in
  let make ~seed ~k ~steps_multiple =
    let p = campaign ~seed ~k and ids = ids ~seed ~k in
    let init () =
      let inst, _, _ = spawn_instance ~id ~completion ~steps_multiple (Sim.build p) ids in
      inst
    in
    { Runner.algo = id; claim; init }
  in
  { id; claim; honest; completion; max_k; campaign; ids; build; instance = Sim.build; make }

(* ------------------------------------------------------------------ *)
(* The adapters                                                       *)
(* ------------------------------------------------------------------ *)

(* Each adapter's instance is written once, as a functor over the
   backend: [generic] applies it to the simulator, the native harness
   applies it to the atomic backend (plain or probed).  Ids, seeds,
   register names and budgets are the same on every backend. *)

(* The campaigns' fixed original-name-space sizes: large enough that the
   staged constructions have real work to do, small enough that a
   campaign cell stays sub-second. *)
let inputs_small = 256
let inputs_polylog = 1024

let none () = []

module Compete (B : Exsel_backend.Intf.S) = struct
  module C = R.Compete.Make (B)

  let build _ mem =
    let c = C.create mem ~name:"c" in
    {
      rename = (fun ~me -> if C.compete c ~me then Some 0 else None);
      name_bound = 1;
      steps_budget = float_of_int R.Compete.steps_bound;
      internals = none;
    }
end

module Moir_anderson (B : Exsel_backend.Intf.S) = struct
  module MA = R.Moir_anderson.Make (B)

  let build p mem =
    let ma = MA.create mem ~name:"ma" ~side:p.k in
    {
      rename = (fun ~me -> MA.rename ma ~me);
      name_bound = R.Moir_anderson.max_name_bound ~contenders:p.k;
      steps_budget = float_of_int (R.Moir_anderson.steps_bound ~side:p.k);
      internals = none;
    }
end

module Attiya (B : Exsel_backend.Intf.S) = struct
  module A = R.Attiya_renaming.Make (B)

  (* one slot per original name *)
  let build p mem =
    let a = A.create mem ~name:"at" ~slots:p.names () in
    {
      rename = (fun ~me -> A.rename a ~slot:me);
      name_bound = R.Attiya_renaming.name_bound ~contenders:p.k;
      (* no structural bound is exposed: each of <= k proposal rounds
         costs one snapshot update+scan, and the Afek et al. scan reads
         all slots O(k) times under helping — calibrated with ~2x
         headroom at slots = k *)
      steps_budget = 20.0 +. (8.0 *. float_of_int (p.k * p.k * p.names));
      internals = none;
    }
end

module Majority (B : Exsel_backend.Intf.S) = struct
  module M = R.Majority.Make (B)

  let build p mem =
    let m =
      M.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"maj"
        ~l:p.k ~inputs:p.names
    in
    {
      rename = (fun ~me -> M.rename m ~me);
      name_bound = M.names m;
      steps_budget = float_of_int (M.steps_bound m);
      internals =
        (fun () -> [ ("degree", Exsel_expander.Bipartite.degree (M.graph m)) ]);
    }
end

module Basic (B : Exsel_backend.Intf.S) = struct
  module Bas = R.Basic_rename.Make (B)

  let build p mem =
    let b =
      Bas.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"bas"
        ~k:p.k ~inputs:p.names
    in
    (* renamed per stage; the last slot counts the unserved *)
    let renamed = Array.init (Bas.stages b + 1) (fun _ -> Atomic.make 0) in
    {
      rename =
        (fun ~me ->
          let name, stage = Bas.rename_traced b ~me in
          Atomic.incr renamed.(stage);
          name);
      name_bound = Bas.names b;
      steps_budget = float_of_int (Bas.steps_bound b);
      internals =
        (fun () ->
          ("stages", Bas.stages b)
          :: List.mapi (fun i c -> (Printf.sprintf "budget.%d" i, c)) (Bas.stage_budgets b)
          @ List.mapi
              (fun i c -> (Printf.sprintf "stage.%d" i, Atomic.get c))
              (Array.to_list renamed));
    }
end

module Polylog (B : Exsel_backend.Intf.S) = struct
  module P = R.Polylog_rename.Make (B)

  let build p mem =
    let pl =
      P.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"pl"
        ~k:p.k ~inputs:p.names
    in
    {
      rename = (fun ~me -> P.rename pl ~me);
      name_bound = P.names pl;
      steps_budget = float_of_int (P.steps_bound pl);
      internals = none;
    }
end

module Efficient (B : Exsel_backend.Intf.S) = struct
  module E = R.Efficient_rename.Make (B)

  let build p mem =
    let e =
      E.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"ef"
        ~k:p.k
    in
    {
      rename = (fun ~me -> E.rename e ~me);
      name_bound = E.names e;
      (* steps_bound's final-stage term is one representative round per
         contender (see efficient_rename.ml); the true data-dependent
         worst case can exceed it, hence the headroom factor *)
      steps_budget = 2.0 *. float_of_int (E.steps_bound e);
      internals = (fun () -> [ ("M'", E.intermediate_names e) ]);
    }
end

(* The highest level any contender of a leveled construction reached. *)
let rec raise_to top level =
  let cur = Atomic.get top in
  if level > cur && not (Atomic.compare_and_set top cur level) then
    raise_to top level

module Almost_adaptive (B : Exsel_backend.Intf.S) = struct
  module A = R.Almost_adaptive.Make (B)

  let build p mem =
    let a =
      A.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"aa"
        ~n:p.n ~inputs:p.names
    in
    let top = Atomic.make 0 in
    {
      rename =
        (fun ~me ->
          let name, level = A.rename_leveled a ~me in
          raise_to top level;
          Some name);
      name_bound = A.name_bound_for_contention a ~k:p.k;
      (* Spec shape with a calibrated constant: the doubling retries
         every level up to ceil(lg k), each a full PolyLog run *)
      steps_budget = 40.0 *. R.Spec.almost_adaptive_steps ~k:p.k ~n_names:p.names;
      internals =
        (fun () -> [ ("top level", Atomic.get top); ("reserve", A.reserve_uses a) ]);
    }
end

module Adaptive (B : Exsel_backend.Intf.S) = struct
  module A = R.Adaptive_rename.Make (B)

  let build p mem =
    let a =
      A.create ~params:p.preset ~rng:(Rng.create ~seed:p.seed) mem ~name:"ad"
        ~n:p.n
    in
    {
      rename = (fun ~me -> Some (A.rename a ~me));
      name_bound = R.Adaptive_rename.name_bound_for_contention ~k:p.k;
      (* Theorem 4's O(k) with its hidden constant: every level up to
         ceil(lg k) is a full Efficient-Rename attempt whose final
         stage scans O(level-names) per proposal *)
      steps_budget = 60.0 *. float_of_int (p.k * p.k);
      internals = (fun () -> [ ("reserve", A.reserve_uses a) ]);
    }
end

module Chain (B : Exsel_backend.Intf.S) = struct
  module C = R.Chain_rename.Make (B)

  let build p mem =
    let c = C.create mem ~name:"ch" ~m:p.chain in
    {
      rename = (fun ~me -> C.rename c ~me);
      name_bound = C.names c;
      steps_budget = float_of_int (C.steps_bound c);
      internals = none;
    }
end

module Randomized (B : Exsel_backend.Intf.S) = struct
  module Rr = R.Randomized_rename.Make (B)

  let build p mem =
    let rr = Rr.create mem ~name:"rr" ~seed:p.seed ~k:p.k ~epsilon:1.0 in
    {
      rename = (fun ~me -> Rr.rename rr ~me);
      name_bound = Rr.slots rr;
      steps_budget = float_of_int (Rr.probes_bound rr * R.Compete.steps_bound);
      internals = none;
    }
end

module Is_rename (B : Exsel_backend.Intf.S) = struct
  module I = R.Is_rename.Make (B)

  (* one snapshot slot per original name *)
  let build p mem =
    let ir = I.create mem ~name:"ir" ~n:p.names in
    {
      rename = (fun ~me -> Some (I.rename ir ~slot:me));
      name_bound = R.Is_rename.name_bound ~contenders:p.k;
      steps_budget = float_of_int (I.steps_bound ir);
      internals = none;
    }
end

(* Negative control: a Moir-Anderson-style triangular grid built on the
   racy splitter (stop/right race removed).  Two contenders can stop in
   the same cell and adopt the same name — the campaigns must catch it. *)
module Buggy_ma (B : Exsel_backend.Intf.S) = struct
  module S = R.Splitter.Make (B)

  let build p mem =
    let side = p.k in
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
      name_bound = R.Moir_anderson.max_name_bound ~contenders:p.k;
      steps_budget = float_of_int (R.Moir_anderson.steps_bound ~side:p.k);
      internals = none;
    }
end

(* The campaigns' instances: each derives its own seed from the campaign
   seed (by its own salt) and fixes its original-name space ([k] unless
   the algorithm needs a larger one). *)
let campaign_with ?(salt = 1) ?names () ~seed ~k =
  params ~seed:(seed * salt) ~k ~names:(Option.value names ~default:k) ()

let honest =
  [
    generic ~id:"compete" ~claim:"Lemma 1" ~completion:(Some Winners_exclusive)
      ~campaign:(campaign_with ()) ~ids:own_ids (module Compete);
    generic ~id:"ma" ~claim:"MA baseline [41]" ~completion:(Some All_named)
      ~campaign:(campaign_with ())
      ~ids:(arbitrary_ids ~stride:37 ~base:100)
      (module Moir_anderson);
    generic ~id:"attiya" ~claim:"snapshot (2k-1)-renaming [14, 21]"
      ~completion:(Some All_named) ~campaign:(campaign_with ()) ~ids:own_ids
      (module Attiya);
    generic ~id:"majority" ~claim:"Lemma 4" ~completion:(Some Half_renamed)
      ~max_k:inputs_small
      ~campaign:(campaign_with ~salt:13 ~names:inputs_small ())
      ~ids:(distinct_ids ~bound:inputs_small)
      (module Majority);
    generic ~id:"basic" ~claim:"Lemma 5" ~completion:(Some All_named)
      ~max_k:inputs_small
      ~campaign:(campaign_with ~salt:7 ~names:inputs_small ())
      ~ids:(distinct_ids ~bound:inputs_small)
      (module Basic);
    generic ~id:"polylog" ~claim:"Theorem 1" ~completion:(Some All_named)
      ~max_k:inputs_polylog
      ~campaign:(campaign_with ~salt:3 ~names:inputs_polylog ())
      ~ids:(distinct_ids ~bound:inputs_polylog)
      (module Polylog);
    generic ~id:"efficient" ~claim:"Theorem 2" ~completion:(Some All_named)
      ~campaign:(campaign_with ~salt:5 ())
      ~ids:(arbitrary_ids ~stride:37 ~base:1000)
      (module Efficient);
    generic ~id:"almost-adaptive" ~claim:"Theorem 3" ~completion:(Some All_named)
      ~max_k:inputs_small
      ~campaign:(campaign_with ~salt:11 ~names:inputs_small ())
      ~ids:(distinct_ids ~bound:inputs_small)
      (module Almost_adaptive);
    generic ~id:"adaptive" ~claim:"Theorem 4" ~completion:(Some All_named)
      ~campaign:(campaign_with ~salt:17 ())
      ~ids:(arbitrary_ids ~stride:101 ~base:5000)
      (module Adaptive);
  ]

let all =
  honest
  @ [
      generic ~id:"chain" ~claim:"register-lean chain (Theorem 6)" ~completion:None
        ~campaign:(campaign_with ()) ~ids:own_ids (module Chain);
      generic ~id:"randomized" ~claim:"randomized loose renaming [10-12]"
        ~completion:(Some All_named) ~campaign:(campaign_with ~salt:19 ())
        ~ids:(arbitrary_ids ~stride:31 ~base:0)
        (module Randomized);
      generic ~id:"is-rename" ~claim:"immediate-snapshot renaming [22]"
        ~completion:(Some All_named) ~campaign:(campaign_with ()) ~ids:own_ids
        (module Is_rename);
      generic ~id:"buggy-ma" ~claim:"negative control (racy splitter grid)"
        ~honest:false ~completion:(Some All_named) ~campaign:(campaign_with ())
        ~ids:own_ids (module Buggy_ma);
    ]

let find id = List.find_opt (fun a -> a.id = id) all

let ids () = List.map (fun a -> a.id) all
