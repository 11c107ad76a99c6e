(* rename-burst: one-shot Efficient-Rename at k = 32 with no service
   around it.  A burst builds a fresh instance, then renames all 32
   contenders in one engine batch on one domain; every rename is timed
   from the burst's arrival, so construction is part of its latency. *)

open Common
module Rng = Exsel_sim.Rng
module Claims = Exsel_backend.Claims

let k = 32

(* Largest name given + 1 (the paper's M), over every burst. *)
let names_used = ref 0

module Make (S : Counts.SUBSTRATE) = struct
  module E = Exsel_renaming.Efficient_rename.Make (S)

  (* Burst [burst] of the run seeded [seed]: its contenders' original
     names and its expanders both derive from the pair alone. *)
  let burst ~seed ~burst tr (w : window) =
    let arrival = now () in
    let top = Tracer.start tr ~trace:burst ~layer:"bench" "burst" in
    let ids = distinct_ids (Rng.create_v2 ~seed:((seed * 7919) + burst)) k in
    let mem = S.fresh () in
    let e =
      Tracer.wrap tr ~up:top ~trace:burst ~layer:"efficient" "efficient.create" (fun _ ->
          E.create ~rng:(Rng.create_v2 ~seed:((seed * 104_729) + burst)) mem ~name:"b" ~k)
    in
    let names = Array.make k None in
    let done_ns = Array.make k 0L in
    batch tr ~up:top ~domains:1 (fun bsp spawn ->
        List.init k (fun i ->
            let sp = Tracer.pending tr ~up:bsp ~trace:burst ~layer:"efficient" "efficient.rename" in
            spawn ~name:"rename" (fun () ->
                Tracer.enter sp;
                let r = S.around mem "rename" (fun () -> E.rename e ~me:ids.(i)) in
                Tracer.leave sp;
                names.(i) <- r;
                done_ns.(i) <- now ());
            sp));
    Array.iter
      (fun t -> Stats.Samples.push w.lat_us (ns_between arrival t /. 1000.0))
      done_ns;
    Array.iter
      (function Some n when n >= !names_used -> names_used := n + 1 | _ -> ())
      names;
    let outcomes =
      Array.mapi
        (fun i result ->
          { Claims.name = Printf.sprintf "p%d" i; status = Claims.Done; result; steps = 0 })
        names
    in
    (match
       Tracer.wrap tr ~up:top ~trace:burst ~layer:"claims" "claims.check" (fun _ ->
           Claims.check ~completion:Claims.All_named ~k ~outcomes ~bound:(E.names e) ())
     with
    | Ok () -> ()
    | Error msg -> Check.failf "rename-burst: burst %d: %s" burst msg);
    w.served <- w.served + k;
    w.offered <- w.offered + k;
    Tracer.stop tr top
end

module Plain = Make (Counts.Plain)
module Counting = Make (Counts.Counting)

(* Set-up is one burst, numbered below the measured ones; the measured
   bursts are numbered from 0 in the order they run, so their inputs
   follow from the seed alone. *)
let run ctx =
  let tracer = if ctx.traced then Tracer.create () else Tracer.off in
  let setups = setups ctx (fun tr ~seed -> Plain.burst ~seed ~burst:(-1) tr (new_window ())) in
  set_up setups tracer;
  let next = ref 0 in
  let ws =
    windows ctx tracer setups ~window_s:0.1 (fun tr w ->
        Plain.burst ~seed:ctx.seed ~burst:!next tr w;
        incr next)
  in
  Counts.reset ();
  for b = 0 to if ctx.small then 1 else 19 do
    Counting.burst ~seed:ctx.seed ~burst:b Tracer.off (new_window ())
  done;
  let metrics =
    if ctx.traced then
      (overhead ws :: span_quantiles tracer "efficient.create" p50)
      @ span_quantiles tracer "efficient.rename" p50_p99
      @ List.map
          (fun g ->
            let r, w = Counts.per_call "rename" g in
            metric (Printf.sprintf "efficient.%s.ops_per_rename" g) "count" (r +. w))
          [ "ma"; "plog"; "final" ]
      @ (metric "names_used" "count" (float_of_int !names_used) :: Engine_stats.metrics ())
    else
      windowed_end_to_end ~setups ws ~reg_ops_per_op:(Counts.total_per [ "rename" ] ~per:"rename")
  in
  { metrics; attempted = attempted ws; tracer; traced_wall_ns = traced_wall_ns ws setups }
