module Rng = Exsel_sim.Rng

module Make (B : Exsel_backend.Intf.S) = struct
  module C = Compete.Make (B)


  type t = {
    seed : int;
    table : C.t array;
  }

  let create mem ~name ~seed ~k ~epsilon =
    if k <= 0 then invalid_arg "Randomized_rename.create: k must be positive";
    if epsilon <= 0.0 then
      invalid_arg "Randomized_rename.create: epsilon must be positive";
    let m = int_of_float (Float.ceil ((1.0 +. epsilon) *. float_of_int k)) in
    let m = max m (k + 1) in
    {
      seed;
      table = Array.init m (fun i -> C.create mem ~name:(Printf.sprintf "%s.%d" name i));
    }

  let slots t = Array.length t.table

  (* The caller's private coins: a permutation of the table derived from
     the instance seed and the identifier. *)
  let permutation t ~me =
    let coins = Rng.create ~seed:(t.seed lxor (me * 0x9E3779B9) lxor me) in
    let order = Array.init (Array.length t.table) (fun i -> i) in
    Rng.shuffle coins order;
    order

  let rename t ~me =
    let order = permutation t ~me in
    let rec probe i =
      if i >= Array.length order then None
      else if C.compete t.table.(order.(i)) ~me then Some order.(i)
      else probe (i + 1)
    in
    probe 0

  let probes_bound t = Array.length t.table
end
