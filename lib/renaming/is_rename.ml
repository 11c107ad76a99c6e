module Make (B : Exsel_backend.Intf.S) = struct
  module IS = Exsel_snapshot.Immediate_snapshot.Make (B)

  type t = { n : int; snapshot : int IS.t }

  let create mem ~name ~n =
    if n <= 0 then invalid_arg "Is_rename.create: n must be positive";
    { n; snapshot = IS.create mem ~name ~n }

  let n t = t.n

  let rename t ~slot =
    let view = IS.access t.snapshot ~me:slot slot in
    let size = List.length view in
    let rank =
      let rec go i = function
        | [] -> invalid_arg "Is_rename: self-inclusion violated"
        | (j, _) :: rest -> if j = slot then i else go (i + 1) rest
      in
      go 1 view
    in
    (size * (size - 1) / 2) + rank - 1

  let steps_bound t = (t.n + 1) * (t.n + 1)
end

let name_bound ~contenders = contenders * (contenders + 1) / 2
