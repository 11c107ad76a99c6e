(* What every workload shares: the run settings, the correctness gate,
   the window loop and the metric records. *)

let now = Tracer.now
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let ns_between a b = Int64.to_float (Int64.sub b a)

type ctx = {
  seed : int;
  seconds : float;  (** measured time of the whole run *)
  traced : bool;  (** traced pass: per-layer metrics instead of end-to-end *)
  small : bool;  (** tiny sizes, for the self-test *)
}

type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric ?(samples = []) name unit_ value = { name; unit_; value; samples }

(* [n] distinct identifiers below 2^30 drawn from [rng]: original names
   and client ids are arbitrary integers, never indices. *)
let distinct_ids rng n =
  let seen = Hashtbl.create n in
  let ids = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let id = Exsel_sim.Rng.int rng (1 lsl 30) in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      ids.(!i) <- id;
      incr i
    end
  done;
  ids

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

(* Violations found by any workload's checks: counted into [failed],
   the first few kept verbatim for the report. *)
module Check = struct
  let count = ref 0
  let first = ref []

  let fail msg =
    incr count;
    if !count <= 10 then first := msg :: !first

  let failf fmt = Printf.ksprintf fail fmt
  let messages () = List.rev !first
end

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Timed set-ups.  [set_up s tr] sets up from the next seed derived
   from the run's and records how long that took.  The first set-up's
   state is the one measured; the run sets up again between windows and
   throws the state away, so [setup_s], the median, samples the whole
   run rather than the moment before it. *)
type 'st setups = {
  run_seed : int;
  setup : Tracer.t -> seed:int -> 'st;
  mutable times : float list;  (** seconds, latest first *)
  mutable traced_s : float;  (** of the set-ups run under the tracer *)
}

let setups ctx setup = { run_seed = ctx.seed; setup; times = []; traced_s = 0.0 }

let set_up s tr =
  let t0 = now () in
  let st = s.setup tr ~seed:((s.run_seed * 1000) + List.length s.times + 1) in
  let dt = secs_since t0 in
  s.times <- dt :: s.times;
  if Tracer.enabled tr then s.traced_s <- s.traced_s +. dt;
  st

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

(* A timed run is cut into many short windows, each summarised on its
   own.  On a shared VM a core runs up to about 1.8x slower while a
   neighbour shares it (2 vCPUs, measured in CPU time as much as in wall
   time), and how much of a run that covers changes from minute to
   minute.  A window is short enough to fall wholly in a quiet stretch,
   so the fast end of the windows' distribution is steady from run to
   run where their median is not.  (The open loop pools its windows
   instead; see lease.ml.) *)
type window = {
  lat_us : Stats.Samples.t;  (** per served operation, request to result *)
  mutable served : int;
  mutable offered : int;
}

let new_window () = { lat_us = Stats.Samples.create (); served = 0; offered = 0 }

(* What a finished window keeps: its samples are dropped. *)
type summary = { p50_us : float; p90_us : float; served : int; offered : int; wall_s : float }

let summarise w ~wall_s =
  let lat = Stats.Samples.sorted w.lat_us in
  {
    p50_us = Stats.quantile_sorted lat 0.5;
    p90_us = Stats.quantile_sorted lat 0.9;
    served = w.served;
    offered = w.offered;
    wall_s;
  }

type windows = {
  timed : summary list;  (** tracing off *)
  under_trace : summary list;  (** empty unless [ctx.traced] *)
  under_trace_ns : float;  (** their wall time *)
}

(* Run [step] over and over for [ctx.seconds], cutting a window every
   [window_s] seconds and setting up once more after each.  A
   timed pass runs every window with tracing off; a traced pass
   alternates an untraced and a traced window, so the tracing overhead
   compares like with like.  A paced workload passes [paced_steps]
   instead: each window is that many steps, nominally [window_s] long,
   and the run a fixed number of windows, so that a seed serves exactly
   the same operations on every run. *)
let windows ?paced_steps ctx tracer setups ~window_s step =
  Gc.full_major ();
  let timed = ref [] and under = ref [] and under_ns = ref 0.0 in
  let start = now () in
  let index = ref 0 in
  let another () =
    match paced_steps with
    | Some _ -> float_of_int !index *. window_s < ctx.seconds || !index < 2
    | None -> secs_since start < ctx.seconds || !timed = [] || (ctx.traced && !under = [])
  in
  while another () do
    let tr = if ctx.traced && !index land 1 = 1 then tracer else Tracer.off in
    let w = new_window () in
    let t0 = now () in
    let steps = ref 0 in
    let window_over () =
      match paced_steps with Some n -> !steps >= n | None -> secs_since t0 >= window_s
    in
    while !steps = 0 || not (window_over ()) do
      step tr w;
      incr steps
    done;
    let wall_s = secs_since t0 in
    let s = summarise w ~wall_s in
    if Tracer.enabled tr then begin
      under := s :: !under;
      under_ns := !under_ns +. (wall_s *. 1e9)
    end
    else timed := s :: !timed;
    ignore (set_up setups tracer);
    incr index
  done;
  { timed = List.rev !timed; under_trace = List.rev !under; under_trace_ns = !under_ns }

(* The fast end of a timing's windows: their 10th percentile, or the
   90th for a rate. *)
let fast ~higher values = Stats.quantile values (if higher then 0.9 else 0.1)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

(* The end-to-end metrics every workload reports (BENCHMARK.json); an
   operation is a lease, a rename or a conformance matrix, per workload.
   Each timing is given as its values (per window, for a windowed
   workload) and reports their fast end. *)
let end_to_end ~setups ~p50_us ~p90_us ~ops_per_s ~reg_ops_per_op ~served_share =
  let timing ?(higher = false) name unit_ values =
    metric ~samples:values name unit_ (fast ~higher values)
  in
  [
    metric ~samples:(List.rev setups.times) "setup_s" "s" (Stats.median setups.times);
    timing "op_p50_us" "us" p50_us;
    timing "op_p90_us" "us" p90_us;
    timing ~higher:true "ops_per_s" "1/s" ops_per_s;
    metric "reg_ops_per_op" "count" reg_ops_per_op;
    metric "served_share" "ratio" served_share;
  ]

(* The end-to-end metrics of a closed-loop windowed workload. *)
let windowed_end_to_end ~setups ~reg_ops_per_op ws =
  let sum f = List.fold_left (fun a (s : summary) -> a + f s) 0 ws.timed in
  end_to_end ~setups ~reg_ops_per_op
    ~p50_us:(List.map (fun s -> s.p50_us) ws.timed)
    ~p90_us:(List.map (fun s -> s.p90_us) ws.timed)
    ~ops_per_s:(List.map (fun s -> float_of_int s.served /. s.wall_s) ws.timed)
    ~served_share:(float_of_int (sum (fun s -> s.served)) /. float_of_int (sum (fun s -> s.offered)))

(* Tracing overhead on the fast-window median latency, traced against
   untraced windows of the same run. *)
let overhead ws =
  let p50 l = fast ~higher:false (List.map (fun s -> s.p50_us) l) in
  metric "trace.overhead_pct" "%" (100.0 *. ((p50 ws.under_trace /. p50 ws.timed) -. 1.0))

let attempted ws =
  List.fold_left (fun a (s : summary) -> a + s.offered) 0 (ws.timed @ ws.under_trace)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* The layers spans are attributed to, named after the modules the
   benchmark calls ("bench" is the benchmark's own loop, "generator" its
   open-loop wait for the next tick). *)
let layers =
  [ "bench"; "generator"; "router"; "core"; "efficient"; "claims"; "engine";
    "campaign"; "adapter" ]

(* Quantiles [qs] of one span name's durations, in ns. *)
let span_quantiles tracer name qs =
  let d = Tracer.durations tracer (String.equal name) in
  List.map
    (fun (suffix, q) -> metric (name ^ "_ns_" ^ suffix) "ns" (Stats.quantile_sorted d q))
    qs

let p50 = [ ("p50", 0.5) ]
let p50_p99 = [ ("p50", 0.5); ("p99", 0.99) ]

(* ------------------------------------------------------------------ *)
(* Engine batches                                                      *)
(* ------------------------------------------------------------------ *)

module Engine = Exsel_native.Engine

(* Flight records of the traced batches. *)
module Engine_stats = struct
  let batch_ns = Stats.Samples.create ()
  let spawn_ns = Stats.Samples.create ()
  let join_ns = Stats.Samples.create ()
  let capacity_ns = ref 0.0 (* wall × domains *)
  let busy_ns = ref 0.0

  let add (tl : Engine.telemetry) =
    let wall = Int64.to_float (Engine.wall_ns tl) in
    Stats.Samples.push batch_ns wall;
    Stats.Samples.push spawn_ns (Int64.to_float tl.tl_spawn_ns);
    Stats.Samples.push join_ns (Int64.to_float tl.tl_join_ns);
    capacity_ns := !capacity_ns +. (wall *. float_of_int tl.tl_domains);
    busy_ns := !busy_ns +. Int64.to_float (Engine.busy_ns tl)

  let metrics () =
    let q s = Stats.quantile_sorted (Stats.Samples.sorted s) 0.5 in
    [
      metric "engine.batch_ns_p50" "ns" (q batch_ns);
      metric "engine.spawn_ns_p50" "ns" (q spawn_ns);
      metric "engine.join_ns_p50" "ns" (q join_ns);
      metric "engine.utilization" "ratio"
        (if !capacity_ns = 0.0 then 0.0 else !busy_ns /. !capacity_ns);
      metric "engine.batches" "count" (float_of_int (Stats.Samples.length batch_ns));
    ]
end

(* One engine batch, as Churn and Workload run it: a fresh engine, one
   task per operation, one run.  [build] receives the batch span and a
   spawn function and returns the task spans it created, which are
   finished once the engine has joined.  A task that raises is a
   violation. *)
let batch tr ?up ~domains build =
  let bsp = Tracer.start tr ?up ~trace:0 ~layer:"engine" "engine.batch" in
  let engine = Engine.create () in
  let spans = build bsp (fun ~name f -> Engine.spawn engine ~name f) in
  (try Engine.run engine ~domains
   with Engine.Task_failed (name, exn) ->
     Check.failf "task %s raised %s" name (Printexc.to_string exn));
  List.iter (Tracer.finish tr) spans;
  Tracer.stop tr bsp;
  if Tracer.enabled tr then Option.iter Engine_stats.add (Engine.telemetry engine)

(* What a workload hands back: its metrics for the pass, the operations
   it attempted, its tracer and the traced wall time (set-ups and traced
   windows) the tracer's spans should cover. *)
type result = {
  metrics : metric list;
  attempted : int;
  tracer : Tracer.t;
  traced_wall_ns : float;
}

let traced_wall_ns ws setups = ws.under_trace_ns +. (1e9 *. setups.traced_s)
