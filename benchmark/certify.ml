(* certify-sim: the verification user's loop — the default conformance
   matrix (9 honest adapters × 5 regimes, k = 5) on the simulator, one
   domain.  No native layer runs here; the cost is instance construction
   and the simulator's commit loop.

   An operation is one matrix at one campaign seed, about 4.5 s, too long
   for windows.  A run certifies two campaign seeds drawn from its own,
   each twice: a rerun must commit exactly as often, and a matrix's time
   is the sum over its cells of each cell's faster run.  Nearly all of it
   goes to ten cells of half a second each, so a noisy stretch of the
   machine spoils a cell rather than the matrix. *)

open Common
module Campaign = Exsel_conformance.Campaign
module Adapter = Exsel_conformance.Adapter
module Regime = Exsel_conformance.Regime

let adapters = Adapter.honest

(* Polylog and almost-adaptive take about half a second to build an
   instance; every other adapter builds in milliseconds. *)
let slow_to_build (a : Adapter.t) = a.id = "polylog" || a.id = "almost-adaptive"

(* The self-test keeps to the adapters that build in milliseconds. *)
let adapters_for ctx =
  if ctx.small then List.filter (fun a -> not (slow_to_build a)) adapters else adapters

let k = 5
let campaign_seeds ctx n = List.init n (fun j -> 1 + (1000 * ctx.seed) + j)

let build tr ~seed (a : Adapter.t) =
  Tracer.wrap tr ~trace:seed ~layer:"adapter" "adapter.init" (fun sp ->
      ignore ((a.make ~seed ~k ~steps_multiple:1.0).init ());
      sp)

(* One matrix over [seeds]; [on_cell] gets each finished cell's matrix
   index, record and wall time (ns, from the campaign's own start and
   finish events). *)
let matrix tr ~algos ~seeds ~on_cell =
  let config = { Campaign.default with algos; seeds; k } in
  let trace = List.hd seeds in
  let top = Tracer.start tr ~trace ~layer:"campaign" "campaign.run" in
  let started = Hashtbl.create 64 in
  let on_event = function
    | Campaign.Cell_started { index; _ } ->
        let sp = Tracer.start tr ~up:top ~trace ~layer:"campaign" "campaign.cell" in
        Hashtbl.replace started index (now (), sp)
    | Campaign.Cell_violated _ -> ()
    | Campaign.Cell_finished { index; cell } ->
        let t0, sp = Hashtbl.find started index in
        let t1 = now () in
        Tracer.stop tr sp;
        on_cell index cell (ns_between t0 t1)
  in
  let report = Campaign.run ~on_event config in
  Tracer.stop tr top;
  report

(* The correctness gate on one report: no violation, every cell ran
   every seed, and a campaign seed run before committed exactly as often
   ([seen]: total commits by seed list). *)
let check ~n_cells ~seen ~seeds (report : Campaign.report) =
  List.iter
    (fun (c : Campaign.cell) ->
      Option.iter
        (fun (v : Campaign.violation) ->
          Check.failf "certify-sim: %s/%s seed %d: %s" v.v_algo v.v_regime v.v_seed v.v_failure)
        c.c_violation;
      if c.c_violation = None && c.c_seeds_run <> List.length seeds then
        Check.failf "certify-sim: %s/%s ran %d seeds of %d" c.c_algo c.c_regime c.c_seeds_run
          (List.length seeds))
    report.r_cells;
  if List.length report.r_cells <> n_cells then
    Check.failf "certify-sim: %d cells, expected %d" (List.length report.r_cells) n_cells;
  let total = List.fold_left (fun a (c : Campaign.cell) -> a + c.c_commits) 0 report.r_cells in
  match Hashtbl.find_opt seen seeds with
  | Some n when n <> total ->
      Check.failf "certify-sim: seeds %s committed %d times, earlier %d"
        (String.concat "," (List.map string_of_int seeds))
        total n
  | _ -> Hashtbl.replace seen seeds total

let run ctx =
  let tracer = if ctx.traced then Tracer.create () else Tracer.off in
  let algos = adapters_for ctx in
  let setups = setups ctx (fun tr ~seed -> List.iter (fun a -> ignore (build tr ~seed a)) algos) in
  set_up setups tracer;
  let regimes = List.length Regime.all in
  let n_cells = List.length algos * regimes in
  let cseeds = Array.of_list (campaign_seeds ctx 2) in
  (* per campaign seed and cell index, the fastest untraced and traced
     run, ns *)
  let fastest_timed = Array.make_matrix 2 n_cells infinity in
  let fastest_traced = Array.make_matrix 2 n_cells infinity in
  (* per adapter, over the traced matrices: (cell ns, cells) and (init
     ns, inits); over the first run of each seed: commits *)
  let add tbl key v =
    let a, n = Option.value (Hashtbl.find_opt tbl key) ~default:(0.0, 0) in
    Hashtbl.replace tbl key (a +. v, n + 1)
  in
  let cell_ns = Hashtbl.create 16 and init_ns = Hashtbl.create 16 in
  let commits = Hashtbl.create 16 in
  let seen = Hashtbl.create 4 in
  let served = ref 0 and offered = ref 0 and traced_ns = ref 0.0 in
  let start = now () in
  (* matrix [j] runs seed [j / 2 mod 2], traced when [j] is odd in a
     traced pass *)
  let j = ref 0 in
  let another () =
    !j < 4 || secs_since start *. float_of_int (!j + 1) /. float_of_int !j <= ctx.seconds
  in
  while another () do
    let si = !j / 2 mod 2 in
    let traced = ctx.traced && !j land 1 = 1 in
    let tr = if traced then tracer else Tracer.off in
    let first = !j < 4 && !j land 1 = 0 in
    let fastest = if traced then fastest_traced.(si) else fastest_timed.(si) in
    Gc.full_major ();
    let t0 = now () in
    let report =
      matrix tr ~algos ~seeds:[ cseeds.(si) ] ~on_cell:(fun index cell ns ->
          fastest.(index) <- Float.min fastest.(index) ns;
          if traced then add cell_ns cell.Campaign.c_algo ns;
          if first then add commits cell.c_algo (float_of_int cell.c_commits))
    in
    if traced then begin
      List.iter
        (fun (a : Adapter.t) ->
          let sp = build tr ~seed:cseeds.(si) a in
          add init_ns a.id (ns_between sp.Tracer.t0 sp.t1))
        algos;
      traced_ns := !traced_ns +. ns_between t0 (now ())
    end;
    let before = !Check.count in
    check ~n_cells ~seen ~seeds:[ cseeds.(si) ] report;
    offered := !offered + 1;
    if !Check.count = before then incr served;
    set_up setups tracer;
    incr j
  done;
  (* Sim commits per matrix, exact for the seed: adapters that build in
     milliseconds are counted over 16 campaign seeds so the count hardly
     depends on which seeds a run draws; the two slow ones over the run's
     two, already counted above. *)
  let fast_algos = List.filter (fun a -> not (slow_to_build a)) algos in
  let replica_seeds = campaign_seeds ctx (if ctx.small then 2 else 16) in
  let replica = matrix Tracer.off ~algos:fast_algos ~seeds:replica_seeds ~on_cell:(fun _ _ _ -> ()) in
  check ~n_cells:(List.length fast_algos * regimes) ~seen ~seeds:replica_seeds replica;
  let per_seed (a : Adapter.t) =
    if slow_to_build a then
      fst (Option.value (Hashtbl.find_opt commits a.id) ~default:(0.0, 0)) /. 2.0
    else
      float_of_int
        (List.fold_left
           (fun s (c : Campaign.cell) -> if c.c_algo = a.id then s + c.c_commits else s)
           0 replica.r_cells)
      /. float_of_int (List.length replica_seeds)
  in
  let metrics =
    if ctx.traced then
      let sum a = Array.fold_left (fun s row -> s +. Array.fold_left ( +. ) 0.0 row) 0.0 a in
      let mean tbl id =
        match Hashtbl.find_opt tbl id with Some (s, n) -> s /. float_of_int n /. 1e9 | None -> 0.0
      in
      metric "trace.overhead_pct" "%" (100.0 *. ((sum fastest_traced /. sum fastest_timed) -. 1.0))
      :: List.concat_map
           (fun (a : Adapter.t) ->
             [
               metric (Printf.sprintf "certify.%s.cell_s" a.id) "s" (mean cell_ns a.id);
               metric (Printf.sprintf "certify.%s.init_s" a.id) "s" (mean init_ns a.id);
               metric (Printf.sprintf "certify.%s.commits" a.id) "count"
                 (per_seed a /. float_of_int regimes);
             ])
           algos
    else
      let matrix_us = Array.to_list (Array.map (fun row -> Array.fold_left ( +. ) 0.0 row /. 1e3) fastest_timed) in
      end_to_end ~setups
        ~p50_us:[ Stats.quantile matrix_us 0.5 ]
        ~p90_us:[ Stats.quantile matrix_us 0.9 ]
        ~ops_per_s:[ 2e6 /. List.fold_left ( +. ) 0.0 matrix_us ]
        ~reg_ops_per_op:(List.fold_left (fun s a -> s +. per_seed a) 0.0 algos)
        ~served_share:(float_of_int !served /. float_of_int !offered)
  in
  {
    metrics;
    attempted = !offered;
    tracer;
    traced_wall_ns = !traced_ns +. (1e9 *. setups.traced_s);
  }
