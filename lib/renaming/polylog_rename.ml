module Span = Exsel_obs.Span

type plan = { epochs : Basic_rename.plan array; inputs : int; names : int }

(* Plan epochs while the range strictly contracts, mirroring the paper's
   stopping rule (iterate until N_j reaches its Θ(k) fixpoint). *)
let plan ?params ~rng ~k ~inputs () =
  if k <= 0 then invalid_arg "Polylog_rename.plan: k must be positive";
  if inputs <= 0 then invalid_arg "Polylog_rename.plan: inputs must be positive";
  let rec go current acc =
    if Basic_rename.plan_names ?params ~k ~inputs:current () >= current then
      { epochs = Array.of_list (List.rev acc); inputs; names = current }
    else
      let basic =
        Basic_rename.plan ?params ~rng:(Exsel_sim.Rng.split rng) ~k ~inputs:current ()
      in
      go (Basic_rename.names_of_plan basic) (basic :: acc)
  in
  go inputs []

module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    k:int ->
    inputs:int ->
    t

  val of_plan : plan -> memory -> name:string -> t
  val epochs : t -> int
  val epoch_ranges : t -> int list
  val names : t -> int
  val rename : t -> me:int -> int option
  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Basic = Basic_rename.Make (B)

  type memory = B.memory

  type t = {
    epochs : Basic.t array;
    epoch_labels : string array;
    inputs : int;
    names : int;
  }

  let of_plan (p : plan) mem ~name =
    let epochs =
      Array.mapi
        (fun i b -> Basic.of_plan b mem ~name:(Printf.sprintf "%s.epoch%d" name (i + 1)))
        p.epochs
    in
    {
      epochs;
      epoch_labels =
        Array.init (Array.length epochs) (fun i -> Printf.sprintf "polylog:epoch=%d" (i + 1));
      inputs = p.inputs;
      names = p.names;
    }

  let create ?params ~rng mem ~name ~k ~inputs =
    of_plan (plan ?params ~rng ~k ~inputs ()) mem ~name

  let epochs t = Array.length t.epochs

  let epoch_ranges t =
    t.inputs :: (Array.to_list t.epochs |> List.map Basic.names)

  let names t = t.names

  let rename t ~me =
    let rec go i current =
      if i >= Array.length t.epochs then Some current
      else
        match
          Span.wrap t.epoch_labels.(i) (fun () -> Basic.rename t.epochs.(i) ~me:current)
        with
        | Some next -> go (i + 1) next
        | None -> None
    in
    go 0 me

  let steps_bound t =
    Array.fold_left (fun acc b -> acc + Basic.steps_bound b) 0 t.epochs

  let registers t =
    Array.fold_left (fun acc b -> acc + Basic.registers b) 0 t.epochs
end

include Make (Exsel_sim.Backend)
