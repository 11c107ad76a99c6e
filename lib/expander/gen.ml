module Rng = Exsel_sim.Rng

(* Draw [degree] distinct outputs for one input.  For small degree relative
   to the range, rejection sampling is cheap: each draw is checked against
   the few outputs already chosen.  When the degree is a large fraction of
   the range, shuffle the whole range and keep its first [degree]
   entries. *)
let draw_distinct rng ~degree ~outputs =
  if degree * 3 >= outputs then begin
    let all = Array.init outputs (fun i -> i) in
    Rng.shuffle rng all;
    Array.sub all 0 degree
  end
  else begin
    let adj = Array.make degree 0 in
    let filled = ref 0 in
    while !filled < degree do
      let w = Rng.int rng outputs in
      if not (Bipartite.occurs w adj !filled) then begin
        adj.(!filled) <- w;
        incr filled
      end
    done;
    adj
  end

(* Adjacency is a pure function of (graph seed, input): each input derives
   its own generator, matching Lemma 3's independent per-input choices and
   letting graphs over huge name spaces stay unmaterialised. *)
let sample_dims rng ~degree ~inputs ~outputs =
  if inputs <= 0 || outputs <= 0 then
    invalid_arg "Gen.sample_dims: positive dimensions required";
  let degree = max 1 (min degree outputs) in
  let graph_seed = Int64.to_int (Rng.bits64 rng) land max_int in
  let adjacency v =
    let vrng = Rng.create ~seed:(graph_seed lxor (v * 0x9E3779B9) lxor v) in
    draw_distinct vrng ~degree ~outputs
  in
  Bipartite.functional ~inputs ~outputs ~degree adjacency

let sample rng params ~inputs ~l =
  if inputs <= 0 || l <= 0 then invalid_arg "Gen.sample: positive sizes required";
  let degree = Params.degree params ~inputs ~l in
  let outputs = Params.width params ~inputs ~l in
  sample_dims rng ~degree ~inputs ~outputs
