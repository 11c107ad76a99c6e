module Bipartite = Exsel_expander.Bipartite
module Gen = Exsel_expander.Gen
module Params = Exsel_expander.Params

module Span = Exsel_obs.Span
module Check = Exsel_expander.Check

(* Sample a graph and certify the unique-neighbour majority property
   (exhaustively when the subset space is tiny, statistically otherwise);
   resample with fresh randomness on failure.  The last attempt is accepted
   uncertified — the caller's reserve lane covers the residual risk. *)
let sample_certified rng params ~inputs ~l ~attempts =
  let certify g =
    let cost = Check.exhaustive_cost ~inputs ~l in
    if cost <= 20_000 then Check.verify_exhaustive g ~l
    else
      Check.verify_sampled (Exsel_sim.Rng.split rng) g ~l
        ~trials:(min 200 (20 * l))
  in
  let rec go n =
    let g = Gen.sample (Exsel_sim.Rng.split rng) params ~inputs ~l in
    if n <= 1 then g
    else match certify g with Ok () -> g | Error _ -> go (n - 1)
  in
  go attempts

(* The backend-free half of an instance: every draw on [rng] happens
   here, so instances built from one plan share its graph. *)
type plan = { graph : Bipartite.t; l : int }

let plan ?(params = Params.practical) ~rng ~l ~inputs () =
  if l <= 0 then invalid_arg "Majority.plan: l must be positive";
  if inputs <= 0 then invalid_arg "Majority.plan: inputs must be positive";
  { graph = sample_certified rng params ~inputs ~l ~attempts:16; l }

let names_of_plan p = Bipartite.outputs p.graph

module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    l:int ->
    inputs:int ->
    t

  val of_plan : plan -> memory -> name:string -> t
  val graph : t -> Exsel_expander.Bipartite.t
  val contention_budget : t -> int
  val names : t -> int
  val rename : t -> me:int -> int option
  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) = struct
  module C = Compete.Make (B)

  type memory = B.memory

  type t = {
    graph : Bipartite.t;
    l : int;
    competitions : C.t array;  (* one per output *)
    span_label : string;
  }

  let of_plan ({ graph; l } : plan) mem ~name =
    let competitions =
      Array.init (Bipartite.outputs graph) (fun w ->
          C.create mem ~name:(Printf.sprintf "%s.out%d" name w))
    in
    { graph; l; competitions; span_label = Printf.sprintf "majority:budget=%d" l }

  let create ?params ~rng mem ~name ~l ~inputs =
    of_plan (plan ?params ~rng ~l ~inputs ()) mem ~name

  let graph t = t.graph
  let contention_budget t = t.l
  let names t = Bipartite.outputs t.graph

  let rename t ~me =
    if me < 0 || me >= Bipartite.inputs t.graph then
      invalid_arg "Majority.rename: name out of range";
    Span.wrap t.span_label (fun () ->
        let adj = Bipartite.neighbours t.graph me in
        let rec try_from i =
          if i >= Array.length adj then None
          else if C.compete t.competitions.(adj.(i)) ~me then Some adj.(i)
          else try_from (i + 1)
        in
        try_from 0)

  let steps_bound t = Compete.steps_bound * Bipartite.degree t.graph
  let registers t = Compete.registers_per_instance * names t
end

include Make (Exsel_sim.Backend)
