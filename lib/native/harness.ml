module Adapter = Exsel_conformance.Adapter
module Claims = Exsel_backend.Claims
module Metrics = Exsel_obs.Metrics
module Trace_export = Exsel_obs.Trace_export

type reg_stat = { rs_name : string; rs_reads : int; rs_writes : int }

type run = {
  algo : string;
  completion : Claims.completion;
  n : int;
  domains : int;
  seed : int;
  ids : int array;
  names : int option array;
  latency_ns : int64 array;
  wall_ns : int64;
  bound : int;
  registers : int;
  telemetry : Engine.telemetry;
  warmup : int;
  warmup_ns : int64;
  reg_stats : reg_stat list;
}

(* Wall-clock ns fit an OCaml int on 64-bit platforms, but Int64.to_int
   silently wraps where they do not — clamp instead (a saturated latency
   is still ordered correctly by every quantile). *)
let ns_to_int ns =
  if Int64.compare ns 0L < 0 then 0
  else if Int64.compare ns (Int64.of_int max_int) > 0 then max_int
  else Int64.to_int ns

module Probed = Probe_backend.Make (Backend)

(* One engine execution: spawn a task per id, run the pool, return the
   decision log, per-task latencies and the engine's flight record. *)
let drive ~rename ~ids ~domains =
  let n = Array.length ids in
  let names = Array.make n None in
  let latency_ns = Array.make n 0L in
  let engine = Engine.create () in
  Array.iteri
    (fun i id ->
      Engine.spawn engine
        ~name:(Printf.sprintf "p%d" i)
        (fun () ->
          (* each task owns slots [i] exclusively; reads happen after
             Engine.run returns, so plain array writes are safe *)
          let t0 = Monotonic_clock.now () in
          let r = rename ~me:id in
          let t1 = Monotonic_clock.now () in
          names.(i) <- r;
          latency_ns.(i) <- Int64.sub t1 t0))
    ids;
  Engine.run engine ~domains;
  let tl =
    match Engine.telemetry engine with
    | Some tl -> tl
    | None -> assert false (* run returned: telemetry is recorded *)
  in
  (names, latency_ns, tl)

(* Instance construction happens on the calling domain, before any worker
   starts, through the adapter's own builder: the ids, seeds and register
   names are the ones the conformance campaigns run on the simulator.
   The plain backend is the fast path bench baselines gate; the probed
   one feeds the CLI's observability surfaces. *)
let run_plain (algo : Adapter.t) ~n ~domains ~seed ids =
  let module Build = (val algo.Adapter.build) in
  let module A = Build (Backend) in
  let mem = Backend.create () in
  let b = A.build ~seed ~k:n mem in
  let names, latency_ns, tl = drive ~rename:b.Adapter.rename ~ids ~domains in
  (names, latency_ns, tl, b.Adapter.name_bound, Backend.registers mem, [])

let run_probed (algo : Adapter.t) ~n ~domains ~seed ids =
  let module Build = (val algo.Adapter.build) in
  let module A = Build (Probed) in
  let mem = Probed.wrap (Backend.create ()) in
  let b = A.build ~seed ~k:n mem in
  let names, latency_ns, tl = drive ~rename:b.Adapter.rename ~ids ~domains in
  let stats =
    List.map
      (fun (name, reads, writes) ->
        { rs_name = name; rs_reads = reads; rs_writes = writes })
      (Probed.counts mem)
  in
  (names, latency_ns, tl, b.Adapter.name_bound, Probed.registers mem, stats)

let run ?(warmup = 0) ?(probe = false) ~algo ~n ~domains ~seed () =
  if n <= 0 then invalid_arg "Harness.run: n must be positive";
  if n > algo.Adapter.max_k then
    invalid_arg "Harness.run: n exceeds the adapter's original-name space";
  if domains <= 0 then invalid_arg "Harness.run: domains must be positive";
  if warmup < 0 then invalid_arg "Harness.run: warmup must be non-negative";
  let ids = algo.Adapter.ids ~seed ~k:n in
  (* Warmup runs are complete throwaway campaigns on the plain backend:
     they warm code paths, the allocator and CPU frequency scaling, and
     start the engine's helper domains, so start-up stays out of the
     measured quantiles; their cost is reported separately, never mixed
     into the latencies. *)
  let warmup_ns =
    if warmup = 0 then 0L
    else begin
      let w0 = Monotonic_clock.now () in
      for _ = 1 to warmup do
        ignore (run_plain algo ~n ~domains ~seed ids)
      done;
      Int64.sub (Monotonic_clock.now ()) w0
    end
  in
  let names, latency_ns, tl, bound, registers, reg_stats =
    if probe then run_probed algo ~n ~domains ~seed ids
    else run_plain algo ~n ~domains ~seed ids
  in
  {
    algo = algo.Adapter.id;
    completion = algo.Adapter.completion;
    n;
    domains;
    seed;
    ids;
    names;
    latency_ns;
    wall_ns = Engine.wall_ns tl;
    bound;
    registers;
    telemetry = tl;
    warmup;
    warmup_ns;
    reg_stats;
  }

let decided r = Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 r.names

let hot_registers r =
  List.sort
    (fun a b ->
      compare (b.rs_reads + b.rs_writes, b.rs_name) (a.rs_reads + a.rs_writes, a.rs_name))
    r.reg_stats

(* Post-hoc claim checking against the recorded decision log: same
   checker and completion rule the conformance adapter runs, minus the
   steps budget (no commit clock on real domains) and minus crash faults
   (domains are not crashed mid-flight; every task runs to completion). *)
let check r =
  let outcomes =
    Array.mapi
      (fun i o ->
        {
          Claims.name = Printf.sprintf "p%d" i;
          status = Claims.Done;
          result = o;
          steps = 0;
        })
      r.names
  in
  Claims.check ~completion:r.completion ~k:r.n ~outcomes ~bound:r.bound ()

(* Flight record as a wall-clock trace document: every rename span
   attributed to its executing worker, timestamps rebased to the run
   start. *)
let trace_doc ?label r =
  let tl = r.telemetry in
  let rel ns = ns_to_int (Int64.sub ns tl.Engine.tl_start_ns) in
  let spans =
    Array.to_list
      (Array.map
         (fun (e : Engine.task_event) ->
           {
             Trace_export.Native.sp_track = e.Engine.te_worker;
             sp_name = e.Engine.te_name;
             sp_start_ns = rel e.Engine.te_start_ns;
             sp_stop_ns = rel e.Engine.te_stop_ns;
           })
         tl.Engine.tl_events)
  in
  {
    Trace_export.Native.nd_label =
      Some
        (match label with
        | Some l -> l
        | None ->
            Printf.sprintf "%s n=%d domains=%d seed=%d" r.algo r.n r.domains
              r.seed);
    nd_domains = tl.Engine.tl_domains;
    nd_spawn_ns = ns_to_int tl.Engine.tl_spawn_ns;
    nd_join_ns = ns_to_int tl.Engine.tl_join_ns;
    nd_wall_ns = ns_to_int (Engine.wall_ns tl);
    nd_spans = spans;
  }

let observe reg r =
  let labels = [ ("algo", r.algo); ("backend", Backend.backend) ] in
  let h = Metrics.histogram reg "exsel_rename_latency_ns" ~labels in
  Array.iter (fun l -> Metrics.observe h (ns_to_int l)) r.latency_ns;
  let c = Metrics.counter reg "exsel_rename_decisions" ~labels in
  Metrics.inc c (decided r);
  Metrics.inc (Metrics.counter reg "exsel_rename_spawned" ~labels) r.n;
  Metrics.max_gauge
    (Metrics.gauge reg "exsel_rename_wall_ns" ~labels)
    (ns_to_int r.wall_ns);
  let tl = r.telemetry in
  Metrics.max_gauge
    (Metrics.gauge reg "exsel_engine_spawn_ns" ~labels)
    (ns_to_int tl.Engine.tl_spawn_ns);
  Metrics.max_gauge
    (Metrics.gauge reg "exsel_engine_join_ns" ~labels)
    (ns_to_int tl.Engine.tl_join_ns);
  Array.iter
    (fun (w : Engine.worker_stat) ->
      let labels = ("domain", string_of_int w.Engine.ws_worker) :: labels in
      Metrics.inc
        (Metrics.counter reg "exsel_domain_tasks" ~labels)
        w.Engine.ws_tasks;
      Metrics.inc
        (Metrics.counter reg "exsel_domain_busy_ns" ~labels)
        (ns_to_int w.Engine.ws_busy_ns))
    tl.Engine.tl_workers;
  if r.warmup > 0 then
    Metrics.max_gauge
      (Metrics.gauge reg "exsel_rename_warmup_ns" ~labels)
      (ns_to_int r.warmup_ns);
  List.iter
    (fun s ->
      let labels = ("register", s.rs_name) :: labels in
      Metrics.inc
        (Metrics.counter reg "exsel_register_reads" ~labels)
        s.rs_reads;
      Metrics.inc
        (Metrics.counter reg "exsel_register_writes" ~labels)
        s.rs_writes)
    r.reg_stats
