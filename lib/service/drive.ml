(* The one service driver behind Churn and Workload (drive.mli has the
   model).  A load only plans rounds; this file owns the session ledger,
   both executors, the claim checks and the cell runner.

   The adaptive-bound check is sound because k̂ over-approximates point
   contention: it counts every session whose snapshot component may be
   published during the round (holders, acquirers, releasers and
   crash-pinned participants), and all of a round's operations are
   spawned before its first commit, so the set only shrinks while the
   round runs. *)

module Rng = Exsel_sim.Rng
module Memory = Exsel_sim.Memory
module Runtime = Exsel_sim.Runtime
module Trace = Exsel_sim.Trace
module Json = Exsel_obs.Json
module Metrics = Exsel_obs.Metrics
module Engine = Exsel_native.Engine
module Dsl = Exsel_adversary.Dsl
module NCore = Core.Native

let ns_to_int = Exsel_native.Harness.ns_to_int

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type backend = Sim | Native of { domains : int }

let backend_name = function Sim -> "sim" | Native _ -> "native"

type config = {
  shards : int;
  cap : int;
  rounds : int;
  entry : Core.entry_algo;
  seeds : int list;
  backend : backend;
  max_commits : int;
  adversary : Dsl.expr option;
}

let default =
  {
    shards = 2;
    cap = 4;
    rounds = 6;
    entry = Core.Efficient;
    seeds = [ 1; 2; 3 ];
    backend = Sim;
    max_commits = 200_000;
    adversary = None;
  }

let validate cfg =
  if cfg.shards <= 0 then Error "shards must be positive"
  else if cfg.cap <= 0 then Error "cap must be positive"
  else if cfg.rounds <= 0 then Error "rounds must be positive"
  else if cfg.seeds = [] then Error "at least one seed required"
  else if cfg.max_commits <= 0 then Error "max-commits must be positive"
  else
    match (cfg.backend, cfg.adversary) with
    | Native { domains }, _ when domains <= 0 -> Error "domains must be positive"
    | Native _, Some _ ->
        Error "--adversary schedules simulator commits (sim backend only)"
    | _, Some expr when not (Dsl.crash_free expr) ->
        Error
          "adversary term must be crash-free for service scheduling (crash \
           decisions would bypass the session ledger)"
    | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type shard_summary = {
  ss_shard : int;
  ss_epochs : int;
  ss_admitted : int;
  ss_held_max : int;
  ss_occupancy_max : int;
}

type cell = {
  c_load : string;
  c_seed : int;
  c_rounds : int;
  c_arrivals : int;
  c_admitted : int;
  c_joins : int;
  c_acquires : int;
  c_releases : int;
  c_crashes : int;
  c_spills : int;
  c_rejects : int;
  c_recycles : int;
  c_commits : int;
  c_wall_ns : int;
  c_max_name : int;
  c_shards : shard_summary list;
  c_violations : string list;
  c_metrics : Metrics.t;
}

type 'cfg report = {
  r_config : 'cfg;
  r_cells : cell list;
  r_violations : int;
  r_metrics : Metrics.t;
}

type event =
  | Cell_started of { index : int; load : string; seed : int }
  | Cell_finished of { index : int; cell : cell }

(* ------------------------------------------------------------------ *)
(* Sessions and operations                                             *)
(* ------------------------------------------------------------------ *)

type lease = { l_shard : int; l_local : int; l_name : int; l_gen : int }

type phase =
  | Joining
  | Idle
  | Acquiring
  | Holding of lease * int
  | Releasing of lease * bool
  | Departed
  | Crashed of { pinned : lease option; participant : bool }

type session = {
  s_client : int;
  s_shard : int;
  s_epoch : int;
  mutable s_slot : int option;
  mutable s_phase : phase;
}

type op =
  | Join of {
      j_s : session;
      mutable j_slot : int option;
      mutable j_t0 : int;
      mutable j_t1 : int;
    }
  | Acq of {
      a_s : session;
      a_hold : int;  (* rounds to hold the lease, drawn at plan time *)
      a_crash_after : int option;  (* sim: crash this many commits in *)
      mutable a_kmax : int;
      mutable a_lease : (int * int) option;
      mutable a_crashed : bool;
      mutable a_t0 : int;
      mutable a_t1 : int;
    }
  | Rel of {
      r_s : session;
      r_lease : lease;
      r_depart : bool;
      mutable r_t0 : int;
      mutable r_t1 : int;
    }

let op_session = function Join j -> j.j_s | Acq a -> a.a_s | Rel r -> r.r_s

exception Round_stalled of string

(* ------------------------------------------------------------------ *)
(* Drivers and cell state                                              *)
(* ------------------------------------------------------------------ *)

type spec = {
  name : string;
  label : string;
  rng_of_seed : seed:int -> Rng.t;
  core_seed : int;
  client : int -> int;
  latency_prefix : string;
  join_latency : bool;
  counters : (string * (cell -> int)) list;
  gauges : (string * (shard_summary -> int)) list;
  cells_counter : string;
}

type ctx = {
  spec : spec;
  cfg : config;
  load : string;
  seed : int;
  rng : Rng.t;
  router : Router.t;
  stride : int;
  mutable ops : op list;  (* the round's batch, newest first *)
  mutable sessions : session list;  (* creation order: one per admission *)
  issued : (int * int * int, unit) Hashtbl.t;
  mutable violations : string list;  (* newest first *)
  mutable joins : int;
  mutable acquires : int;
  mutable releases : int;
  mutable crashes : int;
  mutable max_name : int;
  held_max : int array;
  occupancy_max : int array;
  reg : Metrics.t;
  labels : (string * string) list;
  join_hist : Metrics.histogram option;
  acq_hist : Metrics.histogram;
  rel_hist : Metrics.histogram;
}

type load = { id : string; salt : int; plan : ctx -> round:int -> unit }

let cell_seed load ~seed = (seed * 1_000_003) lxor load.salt

let make_ctx spec cfg load ~seed =
  let reg = Metrics.create () in
  let labels =
    [ (spec.label, load.id); ("backend", backend_name cfg.backend) ]
  in
  let unit_suffix = match cfg.backend with Sim -> "commits" | Native _ -> "ns" in
  let hist what =
    Metrics.histogram reg
      (Printf.sprintf "%s%s_latency_%s" spec.latency_prefix what unit_suffix)
      ~labels
  in
  {
    spec;
    cfg;
    load = load.id;
    seed;
    rng = spec.rng_of_seed ~seed:(cell_seed load ~seed);
    router = Router.create ~shards:cfg.shards ~cap:cfg.cap;
    stride = Core.width_for cfg.entry ~cap:cfg.cap;
    ops = [];
    sessions = [];
    issued = Hashtbl.create 64;
    violations = [];
    joins = 0;
    acquires = 0;
    releases = 0;
    crashes = 0;
    max_name = -1;
    held_max = Array.make cfg.shards 0;
    occupancy_max = Array.make cfg.shards 0;
    reg;
    labels;
    join_hist = (if spec.join_latency then Some (hist "join") else None);
    acq_hist = hist "acquire";
    rel_hist = hist "release";
  }

let violate ctx fmt =
  Printf.ksprintf (fun m -> ctx.violations <- m :: ctx.violations) fmt

(* ------------------------------------------------------------------ *)
(* Planner interface                                                   *)
(* ------------------------------------------------------------------ *)

let sessions ctx = ctx.sessions
let rng ctx = ctx.rng
let sim ctx = ctx.cfg.backend = Sim
let add ctx op = ctx.ops <- op :: ctx.ops

let arrive ?prefer ctx =
  match Router.route ?prefer ctx.router with
  | None -> () (* the router counts the reject *)
  | Some sh ->
      Router.admit ctx.router sh;
      let s =
        {
          s_client = ctx.spec.client (List.length ctx.sessions);
          s_shard = sh;
          s_epoch = Router.epoch ctx.router sh;
          s_slot = None;
          s_phase = Joining;
        }
      in
      ctx.sessions <- ctx.sessions @ [ s ];
      add ctx (Join { j_s = s; j_slot = None; j_t0 = 0; j_t1 = 0 })

let acquire ?crash_after ?(hold = 0) ctx s =
  s.s_phase <- Acquiring;
  add ctx
    (Acq
       {
         a_s = s;
         a_hold = hold;
         a_crash_after = crash_after;
         a_kmax = 0;
         a_lease = None;
         a_crashed = false;
         a_t0 = 0;
         a_t1 = 0;
       })

let release ctx s ~depart =
  match s.s_phase with
  | Holding (l, _) ->
      s.s_phase <- Releasing (l, depart);
      add ctx
        (Rel { r_s = s; r_lease = l; r_depart = depart; r_t0 = 0; r_t1 = 0 })
  | _ -> invalid_arg "Drive.release: session holds no lease"

let crash ctx s =
  let pinned, participant =
    match s.s_phase with
    | Holding (l, _) -> (Some l, true)
    | Acquiring -> (None, true)
    | _ -> (None, false)
  in
  s.s_phase <- Crashed { pinned; participant };
  Router.crash ctx.router s.s_shard;
  ctx.crashes <- ctx.crashes + 1

let depart ctx s =
  s.s_phase <- Departed;
  Router.depart ctx.router s.s_shard

(* ------------------------------------------------------------------ *)
(* Rounds: plan, harvest                                               *)
(* ------------------------------------------------------------------ *)

(* Recycle worn-out quiescent shards before any admission, let the load
   plan the round, then fix each acquire's k̂ from the sessions on its
   shard at spawn time (see the header for why that bounds the point
   contention of every acquire in the batch). *)
let plan ctx load ~round ~recycle =
  for i = 0 to Router.shards ctx.router - 1 do
    if Router.needs_recycle ctx.router i then begin
      recycle i;
      Router.recycled ctx.router i
    end
  done;
  ctx.ops <- [];
  load.plan ctx ~round;
  let ops = List.rev ctx.ops in
  let active = Array.make ctx.cfg.shards 0 in
  List.iter
    (fun s ->
      match s.s_phase with
      | Acquiring | Holding _ | Releasing _ | Crashed { participant = true; _ }
        ->
          active.(s.s_shard) <- active.(s.s_shard) + 1
      | Joining | Idle | Departed | Crashed _ -> ())
    ctx.sessions;
  List.iter
    (function Acq a -> a.a_kmax <- active.(a.a_s.s_shard) | Join _ | Rel _ -> ())
    ops;
  ops

let harvest ctx ~round ~holder_view ops =
  List.iter
    (fun op ->
      match op with
      | Join j -> (
          ctx.joins <- ctx.joins + 1;
          Option.iter
            (fun h -> Metrics.observe h (max 0 (j.j_t1 - j.j_t0)))
            ctx.join_hist;
          match j.j_slot with
          | Some sl ->
              j.j_s.s_slot <- Some sl;
              j.j_s.s_phase <- Idle
          | None ->
              (* defensive: router admission makes entry overflow
                 unreachable, but a buggy core must not wedge the cell *)
              violate ctx
                "entry-overflow: round %d: client %d rejected by shard %d \
                 entry renamer despite admission" round j.j_s.s_client
                j.j_s.s_shard;
              depart ctx j.j_s)
      | Acq a when a.a_crashed -> crash ctx a.a_s
      | Acq a -> (
          match a.a_lease with
          | None ->
              violate ctx
                "wait-freedom: round %d: client %d acquire returned without a \
                 lease" round a.a_s.s_client
          | Some (local, gen) ->
              let sh = a.a_s.s_shard in
              let lease =
                {
                  l_shard = sh;
                  l_local = local;
                  l_name = (sh * ctx.stride) + local;
                  l_gen = gen;
                }
              in
              a.a_s.s_phase <- Holding (lease, round + a.a_hold);
              ctx.acquires <- ctx.acquires + 1;
              ctx.max_name <- max ctx.max_name lease.l_name;
              Metrics.observe ctx.acq_hist (max 0 (a.a_t1 - a.a_t0));
              if Hashtbl.mem ctx.issued (sh, local, gen) then
                violate ctx
                  "generation-reuse: round %d: shard %d name %d generation %d \
                   issued twice" round sh local gen
              else Hashtbl.add ctx.issued (sh, local, gen) ();
              if local > (2 * a.a_kmax) - 2 then
                violate ctx
                  "adaptive-bound: round %d: shard %d local name %d exceeds \
                   2k̂−2 for point contention k̂=%d" round sh local a.a_kmax)
      | Rel r ->
          ctx.releases <- ctx.releases + 1;
          Metrics.observe ctx.rel_hist (max 0 (r.r_t1 - r.r_t0));
          if r.r_depart then depart ctx r.r_s else r.r_s.s_phase <- Idle)
    ops;
  (* quiescence checks per shard: published components match the ledger.
     Only sessions of the shard's *current* incarnation are inspected —
     a recycled core reuses the slot space, so a departed session from a
     previous epoch says nothing about today's holder view (recycle
     requires quiescence, so nothing older can still be live). *)
  for i = 0 to ctx.cfg.shards - 1 do
    let view = holder_view i in
    List.iter
      (fun s ->
        if s.s_shard = i && s.s_epoch = Router.epoch ctx.router i then
          match (s.s_phase, s.s_slot) with
          | Holding (l, _), Some sl ->
              if view.(sl) <> Some l.l_local then
                violate ctx
                  "hold-not-published: round %d: shard %d slot %d holds name \
                   %d but publishes %s" round i sl l.l_local
                  (match view.(sl) with
                  | Some x -> string_of_int x
                  | None -> "nothing")
          | (Idle | Departed), Some sl ->
              if view.(sl) <> None then
                violate ctx
                  "leak: round %d: shard %d slot %d still publishes name %d \
                   after release" round i sl
                  (Option.value view.(sl) ~default:(-1))
          | Crashed { pinned = Some l; _ }, Some sl ->
              if view.(sl) <> Some l.l_local then
                violate ctx
                  "crash-pin: round %d: shard %d pinned name %d vanished from \
                   slot %d" round i l.l_local sl
          | _ -> ())
      ctx.sessions
  done;
  (* exclusive holds among live leases *)
  let holds = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.s_phase with
      | Holding (l, _) -> (
          match Hashtbl.find_opt holds (l.l_shard, l.l_local) with
          | Some other ->
              violate ctx
                "exclusive-holds: round %d: shard %d name %d held by clients \
                 %d and %d concurrently" round l.l_shard l.l_local other
                s.s_client
          | None -> Hashtbl.add holds (l.l_shard, l.l_local) s.s_client)
      | _ -> ())
    ctx.sessions;
  for i = 0 to ctx.cfg.shards - 1 do
    ctx.occupancy_max.(i) <-
      max ctx.occupancy_max.(i) (Router.occupancy ctx.router i);
    let held =
      List.length
        (List.filter
           (fun s ->
             s.s_shard = i
             && match s.s_phase with Holding _ -> true | _ -> false)
           ctx.sessions)
    in
    ctx.held_max.(i) <- max ctx.held_max.(i) held
  done

(* ------------------------------------------------------------------ *)
(* Simulator execution                                                 *)
(* ------------------------------------------------------------------ *)

type crash_plan = {
  cp_due : int;  (* round-commit count at which to fire *)
  cp_rt : Runtime.t;
  cp_proc : Runtime.proc;
  cp_acq : op;
  mutable cp_fired : bool;
}

let exec_sim ctx ~rts ~(cores : Core.t ref array) clock ~round ~drivers ops =
  let crashes = ref [] in
  List.iter
    (fun op ->
      let s = op_session op in
      let rt = rts.(s.s_shard) and core = !(cores.(s.s_shard)) in
      let spawn what body =
        Runtime.spawn rt ~name:(Printf.sprintf "c%d.%s" s.s_client what) body
      in
      match op with
      | Join j ->
          j.j_t0 <- !clock;
          ignore
            (spawn "join" (fun () ->
                 j.j_slot <- Core.join core ~client:s.s_client;
                 j.j_t1 <- !clock))
      | Acq a ->
          let slot = Option.get s.s_slot in
          a.a_t0 <- !clock;
          let proc =
            spawn "acquire" (fun () ->
                a.a_lease <- Some (Core.acquire core ~slot);
                a.a_t1 <- !clock)
          in
          Option.iter
            (fun d ->
              crashes :=
                {
                  cp_due = d;
                  cp_rt = rt;
                  cp_proc = proc;
                  cp_acq = op;
                  cp_fired = false;
                }
                :: !crashes)
            a.a_crash_after
      | Rel r ->
          let slot = Option.get s.s_slot in
          r.r_t0 <- !clock;
          ignore
            (spawn "release" (fun () ->
                 Core.release core ~slot ~name:r.r_lease.l_local;
                 r.r_t1 <- !clock)))
    ops;
  (* interleave across all shard runtimes, one commit at a time: a
     uniform runnable-weighted draw picks the shard; the within-shard
     choice is the same draw's offset, or the compiled adversary's *)
  let commits_round = ref 0 in
  let runnable i = Runtime.num_runnable rts.(i) in
  let fire_crashes () =
    List.iter
      (fun cp ->
        if
          (not cp.cp_fired)
          && !commits_round >= cp.cp_due
          && Runtime.status cp.cp_proc = Runtime.Runnable
        then begin
          Runtime.crash cp.cp_rt cp.cp_proc;
          (match cp.cp_acq with Acq a -> a.a_crashed <- true | _ -> ());
          cp.cp_fired <- true
        end)
      !crashes
  in
  let rec loop () =
    fire_crashes ();
    let total =
      Array.fold_left (fun acc rt -> acc + Runtime.num_runnable rt) 0 rts
    in
    if total > 0 then begin
      if !commits_round >= ctx.cfg.max_commits then
        raise
          (Round_stalled
             (Printf.sprintf
                "liveness: round %d: %d-commit budget exhausted with %d \
                 operations still runnable" round ctx.cfg.max_commits total));
      let pick = ref (Rng.int ctx.rng total) in
      let si = ref 0 in
      while !pick >= runnable !si do
        pick := !pick - runnable !si;
        incr si
      done;
      let rt = rts.(!si) in
      let p =
        match drivers with
        | None -> Runtime.nth_runnable rt !pick
        | Some ds -> (
            match ds.(!si) rt with
            | Some (Dsl.Commit p) -> p
            | Some (Dsl.Crash _) | None ->
                (* crash terms are rejected by validate; a relinquishing
                   adversary falls back to the uniform offset *)
                Runtime.nth_runnable rt !pick)
      in
      Runtime.commit rt p;
      incr clock;
      incr commits_round;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Native execution                                                    *)
(* ------------------------------------------------------------------ *)

let exec_native (cores : NCore.t ref array) ~domains wall_acc ops =
  if ops <> [] then begin
    let engine = Engine.create () in
    List.iter
      (fun op ->
        let s = op_session op in
        let core = !(cores.(s.s_shard)) in
        let spawn what f t1 =
          Engine.spawn engine
            ~name:(Printf.sprintf "c%d.%s" s.s_client what)
            (fun () ->
              let t0 = Monotonic_clock.now () in
              f ();
              t1 (ns_to_int (Int64.sub (Monotonic_clock.now ()) t0)))
        in
        match op with
        | Join j ->
            spawn "join"
              (fun () -> j.j_slot <- NCore.join core ~client:s.s_client)
              (fun t -> j.j_t1 <- t)
        | Acq a ->
            let slot = Option.get s.s_slot in
            spawn "acquire"
              (fun () -> a.a_lease <- Some (NCore.acquire core ~slot))
              (fun t -> a.a_t1 <- t)
        | Rel r ->
            let slot = Option.get s.s_slot in
            spawn "release"
              (fun () -> NCore.release core ~slot ~name:r.r_lease.l_local)
              (fun t -> r.r_t1 <- t))
      ops;
    Engine.run engine ~domains;
    match Engine.telemetry engine with
    | Some tl -> wall_acc := !wall_acc + ns_to_int (Engine.wall_ns tl)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(* Shard [i]'s core for incarnation [epoch], seeded from the cell seed,
   the shard and the epoch, carrying the retiring core's generations. *)
let make_core (type m c) (module C : Core.S with type memory = m and type t = c)
    ctx (mem : m) ?gen0 i ~epoch : c =
  C.create ~algo:ctx.cfg.entry ?gen0
    ~rng:
      (ctx.spec.rng_of_seed
         ~seed:((ctx.seed * ctx.spec.core_seed) + i + (1000 * epoch)))
    mem
    ~name:
      (if epoch = 0 then Printf.sprintf "shard%d" i
       else Printf.sprintf "shard%d.e%d" i epoch)
    ~cap:ctx.cfg.cap

let recycle (type m c) (module C : Core.S with type memory = m and type t = c)
    ctx mems (cores : c ref array) i =
  cores.(i) :=
    make_core (module C) ctx mems.(i) i
      ~gen0:(C.generations !(cores.(i)))
      ~epoch:(Router.epoch ctx.router i + 1)

let rounds ctx load ~recycle ~exec ~holder_view =
  let rounds_done = ref 0 in
  (try
     for round = 1 to ctx.cfg.rounds do
       let ops = plan ctx load ~round ~recycle in
       exec ~round ops;
       harvest ctx ~round ~holder_view ops;
       incr rounds_done
     done
   with Round_stalled msg -> ctx.violations <- msg :: ctx.violations);
  !rounds_done

let finish_cell ctx ~rounds_done ~commits ~wall_ns =
  let admitted = List.length ctx.sessions in
  let cell =
    {
      c_load = ctx.load;
      c_seed = ctx.seed;
      c_rounds = rounds_done;
      c_arrivals = admitted + Router.rejects ctx.router;
      c_admitted = admitted;
      c_joins = ctx.joins;
      c_acquires = ctx.acquires;
      c_releases = ctx.releases;
      c_crashes = ctx.crashes;
      c_spills = Router.spills ctx.router;
      c_rejects = Router.rejects ctx.router;
      c_recycles = Router.recycles ctx.router;
      c_commits = commits;
      c_wall_ns = wall_ns;
      c_max_name = ctx.max_name;
      c_shards =
        List.init ctx.cfg.shards (fun i ->
            {
              ss_shard = i;
              ss_epochs = Router.epoch ctx.router i + 1;
              ss_admitted = Router.admitted ctx.router i;
              ss_held_max = ctx.held_max.(i);
              ss_occupancy_max = ctx.occupancy_max.(i);
            });
      c_violations = List.rev ctx.violations;
      c_metrics = ctx.reg;
    }
  in
  List.iter
    (fun (name, v) ->
      Metrics.inc (Metrics.counter ctx.reg name ~labels:ctx.labels) (v cell))
    ctx.spec.counters;
  List.iter
    (fun s ->
      let labels = ("shard", string_of_int s.ss_shard) :: ctx.labels in
      List.iter
        (fun (name, v) ->
          Metrics.max_gauge (Metrics.gauge ctx.reg name ~labels) (v s))
        ctx.spec.gauges)
    cell.c_shards;
  cell

let run_cell spec cfg load ~seed ~capture_traces =
  let ctx = make_ctx spec cfg load ~seed in
  match cfg.backend with
  | Sim ->
      let mems = Array.init cfg.shards (fun _ -> Memory.create ()) in
      let rts = Array.map Runtime.create mems in
      let cores =
        Array.mapi
          (fun i mem -> ref (make_core (module Core) ctx mem i ~epoch:0))
          mems
      in
      let traces =
        Array.map
          (fun rt -> if capture_traces then Some (Trace.attach rt) else None)
          rts
      in
      let drivers =
        Option.map
          (fun expr ->
            Array.init cfg.shards (fun shard ->
                Dsl.compile expr
                  ~seed:(cell_seed load ~seed + (7919 * shard))
                  ~k:cfg.cap))
          cfg.adversary
      in
      let clock = ref 0 in
      let rounds_done =
        rounds ctx load
          ~recycle:(recycle (module Core) ctx mems cores)
          ~exec:(fun ~round ops ->
            exec_sim ctx ~rts ~cores clock ~round ~drivers ops)
          ~holder_view:(fun i -> Core.holder_view !(cores.(i)))
      in
      ( finish_cell ctx ~rounds_done ~commits:!clock ~wall_ns:0,
        List.init cfg.shards (fun i ->
            ( i,
              Runtime.commits rts.(i),
              Option.fold ~none:[] ~some:Trace.events traces.(i) )) )
  | Native { domains } ->
      let mems =
        Array.init cfg.shards (fun _ -> Exsel_native.Backend.create ())
      in
      let cores =
        Array.mapi
          (fun i mem -> ref (make_core (module NCore) ctx mem i ~epoch:0))
          mems
      in
      let wall = ref 0 in
      let rounds_done =
        rounds ctx load
          ~recycle:(recycle (module NCore) ctx mems cores)
          ~exec:(fun ~round:_ ops -> exec_native cores ~domains wall ops)
          ~holder_view:(fun i -> NCore.holder_view !(cores.(i)))
      in
      (finish_cell ctx ~rounds_done ~commits:0 ~wall_ns:!wall, [])

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(jobs = 1) ?(on_event = fun (_ : event) -> ()) spec cfg loads config =
  let matrix =
    List.concat_map
      (fun load -> List.map (fun seed -> (load, seed)) cfg.seeds)
      loads
    |> List.mapi (fun index (load, seed) -> (index, load, seed))
  in
  let run_one (index, load, seed) =
    on_event (Cell_started { index; load = load.id; seed });
    let cell = fst (run_cell spec cfg load ~seed ~capture_traces:false) in
    on_event (Cell_finished { index; cell });
    cell
  in
  let cells =
    if jobs <= 1 then List.map run_one matrix
    else Exsel_sim.Pool.map ~jobs run_one matrix
  in
  let merged = Metrics.create () in
  Metrics.inc (Metrics.counter merged spec.cells_counter) (List.length cells);
  List.iter (fun c -> Metrics.merge ~into:merged c.c_metrics) cells;
  {
    r_config = config;
    r_cells = cells;
    r_violations =
      List.fold_left (fun acc c -> acc + List.length c.c_violations) 0 cells;
    r_metrics = merged;
  }

let shard_traces spec cfg load ~seed =
  match cfg.backend with
  | Native _ ->
      invalid_arg
        (spec.name ^ ".shard_traces: traces are commit-clock (sim only)")
  | Sim -> snd (run_cell spec cfg load ~seed ~capture_traces:true)

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)
(* ------------------------------------------------------------------ *)

let done_event r =
  Json.Obj
    [
      ("event", Json.String "done");
      ("cells", Json.Int (List.length r.r_cells));
      ("violations", Json.Int r.r_violations);
      ("metrics", Metrics.summary_json r.r_metrics);
    ]

let pp_cells ~width ok ppf r =
  List.iter
    (fun c ->
      if c.c_violations = [] then ok ppf c
      else begin
        Format.fprintf ppf "  FAIL  %-*s seed=%-3d (%d violations)@." width
          c.c_load c.c_seed
          (List.length c.c_violations);
        List.iter (fun v -> Format.fprintf ppf "        %s@." v) c.c_violations
      end)
    r.r_cells;
  Format.fprintf ppf "  %d violation%s in %d cells@." r.r_violations
    (if r.r_violations = 1 then "" else "s")
    (List.length r.r_cells)
