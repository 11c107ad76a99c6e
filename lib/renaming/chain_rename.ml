module Make (B : Exsel_backend.Intf.S) = struct
  module C = Compete.Make (B)

  type t = { chain : C.t array }

  let create mem ~name ~m =
    if m <= 0 then invalid_arg "Chain_rename.create: m must be positive";
    { chain = Array.init m (fun i -> C.create mem ~name:(Printf.sprintf "%s.%d" name i)) }

  let names t = Array.length t.chain

  let rename t ~me =
    let rec go i =
      if i >= Array.length t.chain then None
      else if C.compete t.chain.(i) ~me then Some i
      else go (i + 1)
    in
    go 0

  let steps_bound t = Compete.steps_bound * Array.length t.chain
end
