(* In-memory spans for the traced pass.

   The benchmark records a span around each call it makes into a layer
   (Router, Core, Efficient_rename, Engine, Campaign, ...), with a trace
   id per session, burst or campaign and a link to the span that caused
   it.  Spans stay in memory: when a span finishes, its self time (its
   duration minus the union of its children's intervals) is added to its
   layer and its duration to its name's samples (a uniform sample of at
   most 100 000 per name), and only the first [keep_limit] spans are
   retained for the Chrome export, so memory stays bounded on long runs.

   Task spans are created on the calling domain before the engine runs
   and stamped by the task on whichever domain executes it; the engine's
   join orders those writes before {!finish} reads them.  The disabled
   tracer hands out one shared {!off_span} that is never written. *)

let now () = Monotonic_clock.now ()

type span = {
  id : int;
  up : span option;
  trace : int;
  layer : string;
  name : string;
  mutable t0 : int64;
  mutable t1 : int64;
  mutable worker : int;
  mutable kids : (int64 * int64) list;  (** finished children *)
}

type t = {
  on : bool;
  mutable next : int;
  self_ns : (string, float ref) Hashtbl.t;  (** by layer *)
  durations : (string, Stats.Samples.t) Hashtbl.t;  (** by span name, ns *)
  mutable kept : span list;
  mutable n_kept : int;
}

let keep_limit = 20_000

let make on =
  {
    on;
    next = 0;
    self_ns = Hashtbl.create 16;
    durations = Hashtbl.create 16;
    kept = [];
    n_kept = 0;
  }

let off = make false
let create () = make true
let enabled t = t.on

let off_span =
  { id = -1; up = None; trace = 0; layer = ""; name = ""; t0 = 0L; t1 = 0L;
    worker = 0; kids = [] }

let pending t ?up ~trace ~layer name =
  if not t.on then off_span
  else begin
    let id = t.next in
    t.next <- id + 1;
    { id; up; trace; layer; name; t0 = 0L; t1 = 0L; worker = 0; kids = [] }
  end

(* Stamping happens inside engine tasks, possibly on a helper domain. *)
let enter sp =
  if sp.id >= 0 then begin
    sp.worker <- (Domain.self () :> int);
    sp.t0 <- now ()
  end

let leave sp = if sp.id >= 0 then sp.t1 <- now ()

(* Length of the union of [kids] clipped to [lo, hi]. *)
let covered lo hi kids =
  let sorted = List.sort compare kids in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a (max lo reach) and b = min b hi in
        if Int64.compare b a > 0 then (Int64.add acc (Int64.sub b a), b)
        else (acc, reach))
      (0L, lo) sorted
  in
  total

let finish t sp =
  if sp.id >= 0 then begin
    let dur = Int64.sub sp.t1 sp.t0 in
    let self = Int64.sub dur (covered sp.t0 sp.t1 sp.kids) in
    sp.kids <- [];
    (match Hashtbl.find_opt t.self_ns sp.layer with
    | Some r -> r := !r +. Int64.to_float self
    | None -> Hashtbl.add t.self_ns sp.layer (ref (Int64.to_float self)));
    let samples =
      match Hashtbl.find_opt t.durations sp.name with
      | Some s -> s
      | None ->
          let s = Stats.Samples.create ~cap:100_000 () in
          Hashtbl.add t.durations sp.name s;
          s
    in
    Stats.Samples.push samples (Int64.to_float dur);
    (match sp.up with Some p -> p.kids <- (sp.t0, sp.t1) :: p.kids | None -> ());
    if t.n_kept < keep_limit then begin
      t.kept <- sp :: t.kept;
      t.n_kept <- t.n_kept + 1
    end
  end

let start t ?up ~trace ~layer name =
  let sp = pending t ?up ~trace ~layer name in
  enter sp;
  sp

let stop t sp =
  leave sp;
  finish t sp

let wrap t ?up ~trace ~layer name f =
  let sp = start t ?up ~trace ~layer name in
  let r = f sp in
  stop t sp;
  r

(* ------------------------------------------------------------------ *)
(* Read-out                                                            *)
(* ------------------------------------------------------------------ *)

let self_ns t layer =
  match Hashtbl.find_opt t.self_ns layer with Some r -> !r | None -> 0.0

let total_self_ns t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.self_ns 0.0

let layers t =
  List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) t.self_ns [])

(* Durations (ns, sorted) of every finished span whose name satisfies
   [select]. *)
let durations t select =
  let parts =
    Hashtbl.fold
      (fun name s acc -> if select name then Stats.Samples.sorted s :: acc else acc)
      t.durations []
  in
  let a = Array.concat parts in
  Array.sort Float.compare a;
  a

let names t =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.durations [])

(* Per-layer table: self time per layer as a share of [wall_ns], then
   per span name its count and p50/p99 duration. *)
let pp_table oc t ~workload ~wall_ns =
  Printf.fprintf oc "# %s: per-layer self time over %.3f s traced\n" workload
    (wall_ns /. 1e9);
  Printf.fprintf oc "# %-12s %14s %8s\n" "layer" "self_ms" "share";
  List.iter
    (fun l ->
      let s = self_ns t l in
      Printf.fprintf oc "# %-12s %14.3f %7.2f%%\n" l (s /. 1e6)
        (100.0 *. s /. wall_ns))
    (layers t);
  Printf.fprintf oc "# %-22s %10s %12s %12s\n" "span" "count" "p50_ns" "p99_ns";
  List.iter
    (fun n ->
      let d = durations t (String.equal n) in
      Printf.fprintf oc "# %-22s %10d %12.0f %12.0f\n" n
        (Stats.Samples.length (Hashtbl.find t.durations n))
        (Stats.quantile_sorted d 0.5)
        (Stats.quantile_sorted d 0.99))
    (names t)

(* Chrome trace-event JSON (Perfetto / chrome://tracing): one complete
   ("X") event per retained span, one track per domain, microseconds
   relative to the earliest retained span. *)
let chrome t =
  let module J = Exsel_obs.Json in
  let origin =
    List.fold_left (fun m sp -> if Int64.compare sp.t0 m < 0 then sp.t0 else m)
      Int64.max_int t.kept
  in
  let us ns = Int64.to_float ns /. 1000.0 in
  let event sp =
    J.Obj
      [
        ("name", J.String sp.name);
        ("cat", J.String sp.layer);
        ("ph", J.String "X");
        ("ts", J.Float (us (Int64.sub sp.t0 origin)));
        ("dur", J.Float (us (Int64.sub sp.t1 sp.t0)));
        ("pid", J.Int 1);
        ("tid", J.Int sp.worker);
        ( "args",
          J.Obj
            [
              ("id", J.Int sp.id);
              ( "parent",
                match sp.up with Some p -> J.Int p.id | None -> J.Null );
              ("trace", J.Int sp.trace);
            ] );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.rev_map event t.kept));
      ("displayTimeUnit", J.String "ns");
    ]
