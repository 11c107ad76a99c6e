(* lease-cycle and lease-openloop: the long-lived renaming service from
   request to lease, driven through Router, Core and Engine directly (not
   through Churn or Workload, so reshaping those cannot move these
   numbers).  Each batch is one Engine.create/spawn/run, as Churn and
   Workload run their rounds. *)

open Common
module Rng = Exsel_sim.Rng
module Router = Exsel_service.Router
module Service_core = Exsel_service.Core

(* Largest local name leased + 1 (the paper's M for the long-lived
   stage), over every lease checked. *)
let names_used = ref 0

module Make (S : Counts.SUBSTRATE) = struct
  module C = Service_core.Make (S)

  type shard = {
    index : int;
    mutable mem : S.memory;
    mutable core : C.t;
    mutable epoch : int;
    last_gen : int array;  (** per local name, last generation leased *)
    held : int array;  (** per local name, holding session or -1 *)
  }

  let build tr ~up ~seed ~algo ~cap ?gen0 index epoch =
    Tracer.wrap tr ~up ~trace:0 ~layer:"core" "core.create" (fun _ ->
        let mem = S.fresh () in
        let core =
          C.create ~algo ?gen0
            ~rng:(Rng.create_v2 ~seed:((seed * 89) + index + (1000 * epoch)))
            mem
            ~name:(Printf.sprintf "s%de%d" index epoch)
            ~cap
        in
        (mem, core))

  let new_shard tr ~up ~seed ~algo ~cap index =
    let mem, core = build tr ~up ~seed ~algo ~cap index 0 in
    let width = C.width core in
    { index; mem; core; epoch = 0; last_gen = Array.make width (-1);
      held = Array.make width (-1) }

  (* A worn, quiescent shard gets a fresh incarnation that carries the
     generations forward. *)
  let recycle tr ~up ~seed ~algo ~cap router sh =
    let mem, core =
      build tr ~up ~seed ~algo ~cap ~gen0:(C.generations sh.core) sh.index
        (sh.epoch + 1)
    in
    sh.mem <- mem;
    sh.core <- core;
    sh.epoch <- sh.epoch + 1;
    Router.recycled router sh.index

  (* The correctness gate on one lease: the name lies below the core
     width, no live session holds it, and its generation exceeds every
     generation leased for the name before — generations only grow, so
     a lease at or below an earlier one repeats a lease. *)
  let issue sh ~sid (name, gen) =
    if name < 0 || name >= Array.length sh.held then
      Check.failf "shard %d: name %d outside the core width %d" sh.index name
        (Array.length sh.held)
    else begin
      if sh.held.(name) >= 0 then
        Check.failf "shard %d: name %d leased to session %d while session %d holds it"
          sh.index name sid sh.held.(name);
      if gen <= sh.last_gen.(name) then
        Check.failf "shard %d: lease (%d, %d) issued after generation %d" sh.index
          name gen sh.last_gen.(name);
      sh.held.(name) <- sid;
      sh.last_gen.(name) <- gen;
      if name >= !names_used then names_used := name + 1
    end

  let vacate sh name = if name >= 0 && name < Array.length sh.held then sh.held.(name) <- -1

  (* ---------------------------------------------------------------- *)
  (* lease-cycle                                                        *)
  (* ---------------------------------------------------------------- *)

  (* 2 shards × cap 8, Efficient entry, 16 sessions joined at set-up; a
     round is one batch of 16 acquires then one batch of 16 releases, on
     one domain. *)
  let cycle_shards = 2
  let cycle_cap = 8

  type cycle = {
    shards : shard array;
    clients : int array;
    home : int array;  (** session -> shard *)
    slots : int array;
    names : int array;
    gens : int array;
    done_ns : int64 array;
  }

  let acquires st tr ~up =
    batch tr ~up ~domains:1 (fun bsp spawn ->
        List.init (Array.length st.clients) (fun i ->
            let sh = st.shards.(st.home.(i)) and slot = st.slots.(i) in
            let sp = Tracer.pending tr ~up:bsp ~trace:st.clients.(i) ~layer:"core" "core.acquire" in
            spawn ~name:"acquire" (fun () ->
                Tracer.enter sp;
                let name, gen = S.around sh.mem "acquire" (fun () -> C.acquire sh.core ~slot) in
                Tracer.leave sp;
                st.names.(i) <- name;
                st.gens.(i) <- gen;
                st.done_ns.(i) <- now ());
            sp))

  let releases st tr ~up =
    batch tr ~up ~domains:1 (fun bsp spawn ->
        List.init (Array.length st.clients) (fun i ->
            let sh = st.shards.(st.home.(i)) and slot = st.slots.(i) in
            let name = st.names.(i) in
            let sp = Tracer.pending tr ~up:bsp ~trace:st.clients.(i) ~layer:"core" "core.release" in
            spawn ~name:"release" (fun () ->
                Tracer.enter sp;
                S.around sh.mem "release" (fun () -> C.release sh.core ~slot ~name);
                Tracer.leave sp);
            sp))

  (* A lease's latency runs from the acquire batch's submission to the
     task's return. *)
  let cycle_round st tr ?up (w : window) =
    let round = Tracer.start tr ?up ~trace:0 ~layer:"bench" "round" in
    let submit = now () in
    acquires st tr ~up:round;
    Array.iteri
      (fun i h ->
        Stats.Samples.push w.lat_us (ns_between submit st.done_ns.(i) /. 1000.0);
        issue st.shards.(h) ~sid:i (st.names.(i), st.gens.(i)))
      st.home;
    releases st tr ~up:round;
    Array.iteri (fun i h -> vacate st.shards.(h) st.names.(i)) st.home;
    let n = Array.length st.clients in
    w.served <- w.served + n;
    w.offered <- w.offered + n;
    Tracer.stop tr round

  let cycle_setup tr ~seed =
    let top = Tracer.start tr ~trace:0 ~layer:"bench" "setup" in
    let router = Router.create ~shards:cycle_shards ~cap:cycle_cap in
    let shards =
      Array.init cycle_shards
        (new_shard tr ~up:top ~seed ~algo:Service_core.Efficient ~cap:cycle_cap)
    in
    let n = cycle_shards * cycle_cap in
    let clients = distinct_ids (Rng.create_v2 ~seed) n in
    let home =
      Array.map
        (fun client ->
          match
            Tracer.wrap tr ~up:top ~trace:client ~layer:"router" "router.route"
              (fun _ -> Router.route ~prefer:(client mod cycle_shards) router)
          with
          | Some s ->
              Router.admit router s;
              s
          | None ->
              Check.fail "lease-cycle: the router rejected a session at set-up";
              0)
        clients
    in
    let slots = Array.make n (-1) in
    batch tr ~up:top ~domains:1 (fun bsp spawn ->
        List.init n (fun i ->
            let sh = shards.(home.(i)) in
            let sp = Tracer.pending tr ~up:bsp ~trace:clients.(i) ~layer:"core" "core.join" in
            spawn ~name:"join" (fun () ->
                Tracer.enter sp;
                let slot = S.around sh.mem "join" (fun () -> C.join sh.core ~client:clients.(i)) in
                Tracer.leave sp;
                slots.(i) <- Option.value slot ~default:(-1));
            sp));
    Array.iteri
      (fun i s -> if s < 0 then Check.failf "lease-cycle: session %d got no entry slot" i)
      slots;
    let st =
      { shards; clients; home; slots; names = Array.make n (-1); gens = Array.make n 0;
        done_ns = Array.make n 0L }
    in
    (* one warm-up round *)
    cycle_round st tr ~up:top (new_window ());
    Tracer.stop tr top;
    st

  (* ---------------------------------------------------------------- *)
  (* lease-openloop                                                     *)
  (* ---------------------------------------------------------------- *)

  (* 4 shards × cap 4, Adaptive entry, 2 domains.  Every 5 ms tick:
     binomial(12, 1/4) arrivals, each holding for 1–7 ticks; one batch
     per tick runs the due releases and a join+acquire per admitted
     arrival. *)
  let open_shards = 4
  let open_cap = 4
  let open_algo = Service_core.Adaptive
  let tick_ns = 5_000_000

  type session = {
    sid : int;
    client : int;
    sh : shard;
    mutable slot : int;
    mutable name : int;
    mutable gen : int;
    mutable done_at : int64;
    until : int;  (** tick of its release *)
  }

  type service = {
    seed : int;
    router : Router.t;
    fleet : shard array;
    rng : Rng.t;  (** arrivals and holds *)
    leaving : (int, session) Hashtbl.t;  (** by release tick *)
    mutable tick : int;
    mutable base : int64;  (** due instant of tick 0, fixed by the first tick *)
    mutable admitted : int;
    late_ns : Stats.Samples.t;  (** per paced tick, due instant to start *)
    lat_us : Stats.Samples.t;  (** every untraced lease of a paced tick *)
  }

  (* An empty service; the arrival stream derives from [seed]. *)
  let open_setup tr ~seed =
    let top = Tracer.start tr ~trace:0 ~layer:"bench" "setup" in
    let fleet =
      Array.init open_shards (new_shard tr ~up:top ~seed ~algo:open_algo ~cap:open_cap)
    in
    Tracer.stop tr top;
    { seed; router = Router.create ~shards:open_shards ~cap:open_cap; fleet;
      rng = Rng.create_v2 ~seed:((seed * 1_000_003) + 1); leaving = Hashtbl.create 64;
      tick = 0; base = 0L; admitted = 0; late_ns = Stats.Samples.create ();
      lat_us = Stats.Samples.create () }

  (* Sleep until close to [due], then spin the rest of the way: a sleep
     alone overshoots by scheduler latency. *)
  let wait_until due =
    let ahead = Int64.to_float (Int64.sub due (now ())) in
    if ahead > 400_000.0 then Unix.sleepf ((ahead -. 300_000.0) /. 1e9);
    while Int64.compare (now ()) due < 0 do
      Domain.cpu_relax ()
    done

  (* One tick.  [paced] follows the wall clock (the timed and traced
     windows); the count replica runs its ticks back to back.  Latency
     runs from the tick's due instant to the acquire's return, so a late
     tick charges its lateness to every lease it carries. *)
  let tick svc ~paced ~domains tr (w : window) =
    let tick = svc.tick in
    svc.tick <- tick + 1;
    let due =
      if paced then begin
        if tick = 0 then svc.base <- Int64.add (now ()) 1_000_000L;
        let due = Int64.add svc.base (Int64.of_int (tick * tick_ns)) in
        Tracer.wrap tr ~trace:0 ~layer:"generator" "idle" (fun _ -> wait_until due);
        Stats.Samples.push svc.late_ns (ns_between due (now ()));
        due
      end
      else now ()
    in
    let router = svc.router in
    let tsp = Tracer.start tr ~trace:tick ~layer:"bench" "tick" in
    Array.iter
      (fun sh ->
        if Router.needs_recycle router sh.index then
          recycle tr ~up:tsp ~seed:svc.seed ~algo:open_algo ~cap:open_cap router sh)
      svc.fleet;
    let going = Hashtbl.find_all svc.leaving tick in
    List.iter (fun _ -> Hashtbl.remove svc.leaving tick) going;
    let arrivals = ref 0 in
    for _ = 1 to 12 do
      if Rng.int svc.rng 4 = 0 then incr arrivals
    done;
    let coming = ref [] in
    for _ = 1 to !arrivals do
      let client = Rng.int svc.rng (1 lsl 30) in
      let hold = 1 + Rng.int svc.rng 7 in
      match
        Tracer.wrap tr ~up:tsp ~trace:client ~layer:"router" "router.route" (fun _ ->
            Router.route ~prefer:(client mod open_shards) router)
      with
      | None -> ()
      | Some s ->
          Router.admit router s;
          let sid = svc.admitted in
          svc.admitted <- sid + 1;
          coming :=
            { sid; client; sh = svc.fleet.(s); slot = -1; name = -1; gen = -1;
              done_at = 0L; until = tick + hold }
            :: !coming
    done;
    let coming = List.rev !coming in
    batch tr ~up:tsp ~domains (fun bsp spawn ->
        let release s =
          let sp = Tracer.pending tr ~up:bsp ~trace:s.client ~layer:"core" "core.release" in
          let core = s.sh.core and mem = s.sh.mem and slot = s.slot and name = s.name in
          spawn ~name:"release" (fun () ->
              Tracer.enter sp;
              S.around mem "release" (fun () -> C.release core ~slot ~name);
              Tracer.leave sp);
          [ sp ]
        in
        let join_acquire s =
          let jsp = Tracer.pending tr ~up:bsp ~trace:s.client ~layer:"core" "core.join" in
          let asp = Tracer.pending tr ~up:bsp ~trace:s.client ~layer:"core" "core.acquire" in
          let core = s.sh.core and mem = s.sh.mem in
          spawn ~name:"join+acquire" (fun () ->
              Tracer.enter jsp;
              let slot = S.around mem "join" (fun () -> C.join core ~client:s.client) in
              Tracer.leave jsp;
              match slot with
              | None -> ()
              | Some slot ->
                  Tracer.enter asp;
                  let name, gen = S.around mem "acquire" (fun () -> C.acquire core ~slot) in
                  Tracer.leave asp;
                  s.slot <- slot;
                  s.name <- name;
                  s.gen <- gen;
                  s.done_at <- now ());
          [ jsp; asp ]
        in
        List.concat_map release going @ List.concat_map join_acquire coming);
    List.iter
      (fun s ->
        vacate s.sh s.name;
        Router.depart router s.sh.index)
      going;
    List.iter
      (fun s ->
        if s.slot < 0 then begin
          Check.failf "lease-openloop: admitted client %d found no entry slot" s.client;
          Router.depart router s.sh.index
        end
        else begin
          issue s.sh ~sid:s.sid (s.name, s.gen);
          let lat = ns_between due s.done_at /. 1000.0 in
          Stats.Samples.push w.lat_us lat;
          if paced && not (Tracer.enabled tr) then Stats.Samples.push svc.lat_us lat;
          w.served <- w.served + 1;
          Hashtbl.add svc.leaving s.until s
        end)
      coming;
    w.offered <- w.offered + !arrivals;
    Tracer.stop tr tsp
end

module Plain = Make (Counts.Plain)
module Counting = Make (Counts.Counting)

(* Register metrics of the count replica: reads and writes per join,
   acquire and release in each Core register group, and per join in
   each level of an Adaptive entry. *)
let core_counts () =
  List.concat_map
    (fun g ->
      List.concat_map
        (fun kind ->
          let r, w = Counts.per_call kind g in
          [
            metric (Printf.sprintf "core.%s.reads_per_%s" g kind) "count" r;
            metric (Printf.sprintf "core.%s.writes_per_%s" g kind) "count" w;
          ])
        [ "join"; "acquire"; "release" ])
    [ "entry"; "hold"; "gen" ]
  @ List.map
      (fun lvl ->
        let r, w =
          Counts.ops "join" (fun g ->
              Counts.first_component g = "entry" && Counts.second_component g = lvl)
        in
        let joins = max 1 (Counts.calls_of "join") in
        metric
          (Printf.sprintf "adaptive.%s.ops_per_join" lvl)
          "count"
          (float_of_int (r + w) /. float_of_int joins))
      [ "lvl0"; "lvl1"; "lvl2"; "reserve" ]

(* Per-layer metrics both lease workloads read off the tracer. *)
let core_spans tracer =
  span_quantiles tracer "router.route" p50
  @ span_quantiles tracer "core.create" p50
  @ List.concat_map
      (fun op -> span_quantiles tracer ("core." ^ op) p50_p99)
      [ "join"; "acquire"; "release" ]

let cycle ctx =
  let tracer = if ctx.traced then Tracer.create () else Tracer.off in
  let setups = setups ctx Plain.cycle_setup in
  let st = set_up setups tracer in
  let ws = windows ctx tracer setups ~window_s:0.1 (fun tr w -> Plain.cycle_round st tr w) in
  (* the count replica: the measured set-up's inputs, over the probed
     backend *)
  Counts.reset ();
  let replica = Counting.cycle_setup Tracer.off ~seed:((ctx.seed * 1000) + 1) in
  for _ = 1 to if ctx.small then 5 else 50 do
    Counting.cycle_round replica Tracer.off (new_window ())
  done;
  let metrics =
    if ctx.traced then
      (overhead ws :: core_spans tracer)
      @ core_counts ()
      @ (metric "names_used" "count" (float_of_int !names_used) :: Engine_stats.metrics ())
    else
      windowed_end_to_end ~setups ws
        ~reg_ops_per_op:(Counts.total_per [ "acquire"; "release" ] ~per:"acquire")
  in
  { metrics; attempted = attempted ws; tracer; traced_wall_ns = traced_wall_ns ws setups }

let openloop ctx =
  let tracer = if ctx.traced then Tracer.create () else Tracer.off in
  let setups = setups ctx Plain.open_setup in
  let svc = set_up setups tracer in
  let ws =
    let ticks = if ctx.small then 20 else 100 in
    windows ~paced_steps:ticks ctx tracer setups
      ~window_s:(float_of_int (ticks * Plain.tick_ns) /. 1e9)
      (Plain.tick svc ~paced:true ~domains:2)
  in
  Counts.reset ();
  let replica = Counting.open_setup Tracer.off ~seed:svc.seed in
  for _ = 1 to if ctx.small then 40 else 400 do
    Counting.tick replica ~paced:false ~domains:1 Tracer.off (new_window ())
  done;
  let metrics =
    if ctx.traced then
      let late = Stats.Samples.sorted svc.late_ns in
      let count name v = metric name "count" (float_of_int v) in
      (overhead ws :: core_spans tracer)
      @ core_counts ()
      @ [
          count "names_used" !names_used;
          count "router.rejects" (Router.rejects svc.router);
          count "router.spills" (Router.spills svc.router);
          count "router.recycles" (Router.recycles svc.router);
          count "generator.offered" (attempted ws);
          count "generator.admitted" svc.admitted;
          metric "generator.late_us_p99" "us" (Stats.quantile_sorted late 0.99 /. 1000.0);
        ]
      @ Engine_stats.metrics ()
    else
      (* Latency quantiles pool every lease of the run: the fastest
         windows of an open loop would leave out the stalls its timing
         from the due instant is there to count.  Its rate is what the
         generator offered and the router admitted, however fast the code
         runs. *)
      let lat = Stats.Samples.sorted svc.lat_us in
      let sum f = List.fold_left (fun a (s : summary) -> a +. f s) 0.0 ws.timed in
      let served = sum (fun s -> float_of_int s.served) in
      end_to_end ~setups
        ~p50_us:[ Stats.quantile_sorted lat 0.5 ]
        ~p90_us:[ Stats.quantile_sorted lat 0.9 ]
        ~ops_per_s:[ served /. sum (fun s -> s.wall_s) ]
        ~reg_ops_per_op:(Counts.total_per [ "join"; "acquire"; "release" ] ~per:"acquire")
        ~served_share:(served /. sum (fun s -> float_of_int s.offered))
  in
  { metrics; attempted = attempted ws; tracer; traced_wall_ns = traced_wall_ns ws setups }
