type t = {
  inputs : int;
  outputs : int;
  degree : int;
  adjacency : int -> int array;
}

(* An adjacency holds Δ = O(log N) outputs, so a scan is cheaper than
   hashing.  [w] is typed so that [=] compiles to an integer compare, not
   a call to the polymorphic one. *)
let rec occurs (w : int) adj n = n > 0 && (adj.(n - 1) = w || occurs w adj (n - 1))

let validate_adj ~outputs ~degree v adj =
  if Array.length adj <> degree then
    invalid_arg
      (Printf.sprintf "Bipartite: input %d has degree %d, expected %d" v
         (Array.length adj) degree);
  Array.iteri
    (fun i w ->
      if w < 0 || w >= outputs then
        invalid_arg (Printf.sprintf "Bipartite: edge (%d,%d) out of range" v w);
      if occurs w adj i then
        invalid_arg (Printf.sprintf "Bipartite: duplicate edge (%d,%d)" v w))
    adj

let create ~inputs ~outputs ~neighbours =
  if inputs <= 0 then invalid_arg "Bipartite.create: inputs must be positive";
  if outputs <= 0 then invalid_arg "Bipartite.create: outputs must be positive";
  if Array.length neighbours <> inputs then
    invalid_arg "Bipartite.create: adjacency size mismatch";
  let degree =
    match Array.length neighbours with
    | 0 -> invalid_arg "Bipartite.create: no inputs"
    | _ -> Array.length neighbours.(0)
  in
  if degree = 0 then invalid_arg "Bipartite.create: zero input degree";
  Array.iteri (validate_adj ~outputs ~degree) neighbours;
  { inputs; outputs; degree; adjacency = (fun v -> neighbours.(v)) }

let functional ~inputs ~outputs ~degree f =
  if inputs <= 0 then invalid_arg "Bipartite.functional: inputs must be positive";
  if outputs <= 0 then invalid_arg "Bipartite.functional: outputs must be positive";
  if degree <= 0 || degree > outputs then
    invalid_arg "Bipartite.functional: bad degree";
  let adjacency v =
    let adj = f v in
    validate_adj ~outputs ~degree v adj;
    adj
  in
  { inputs; outputs; degree; adjacency }

let inputs t = t.inputs
let outputs t = t.outputs
let degree t = t.degree

let neighbours t v =
  if v < 0 || v >= t.inputs then invalid_arg "Bipartite.neighbours: out of range";
  t.adjacency v

let edges t = t.inputs * t.degree
