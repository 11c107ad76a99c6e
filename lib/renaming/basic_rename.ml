module Span = Exsel_obs.Span

(* Contention budgets k, ⌈k/2⌉, …, 2, 1 — the paper's lg k + 1 stages plus
   the terminal singleton stage that absorbs the last contender. *)
let budgets k =
  let rec go b acc = if b <= 1 then List.rev (1 :: acc) else go ((b + 1) / 2) (b :: acc) in
  go k []

(* Predicted name-range size of an instance, without allocating anything:
   the sum of the stage widths dictated by the expander parameters. *)
let plan_names ?(params = Exsel_expander.Params.practical) ~k ~inputs () =
  List.fold_left
    (fun acc l -> acc + Exsel_expander.Params.width params ~inputs ~l)
    0 (budgets k)

(* One Majority plan per stage, each on its own split of [rng]. *)
type plan = Majority.plan array

let plan ?params ~rng ~k ~inputs () =
  if k <= 0 then invalid_arg "Basic_rename.plan: k must be positive";
  budgets k
  |> List.map (fun l -> Majority.plan ?params ~rng:(Exsel_sim.Rng.split rng) ~l ~inputs ())
  |> Array.of_list

let names_of_plan p = Array.fold_left (fun acc m -> acc + Majority.names_of_plan m) 0 p

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
  val stages : t -> int
  val names : t -> int
  val stage_budgets : t -> int list
  val rename : t -> me:int -> int option
  val rename_traced : t -> me:int -> int option * int
  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Maj = Majority.Make (B)

  type memory = B.memory

  type stage = { majority : Maj.t; range : Name_range.range; span_label : string }

  type t = { stages : stage array; names : int }

  let of_plan p mem ~name =
    let ranges = Name_range.allocator () in
    let stages =
      Array.mapi
        (fun i m ->
          let majority = Maj.of_plan m mem ~name:(Printf.sprintf "%s.stage%d" name i) in
          {
            majority;
            range = Name_range.take ranges (Maj.names majority);
            span_label =
              Printf.sprintf "basic:stage=%d:budget=%d" i (Maj.contention_budget majority);
          })
        p
    in
    { stages; names = Name_range.used ranges }

  let create ?params ~rng mem ~name ~k ~inputs =
    of_plan (plan ?params ~rng ~k ~inputs ()) mem ~name

  let stages t = Array.length t.stages
  let names t = t.names

  let stage_budgets t =
    Array.to_list (Array.map (fun s -> Maj.contention_budget s.majority) t.stages)

  let rename_traced t ~me =
    let rec go i =
      if i >= Array.length t.stages then (None, i)
      else
        let s = t.stages.(i) in
        match Span.wrap s.span_label (fun () -> Maj.rename s.majority ~me) with
        | Some w -> (Some (Name_range.global s.range w), i)
        | None -> go (i + 1)
    in
    go 0

  let rename t ~me = fst (rename_traced t ~me)

  let steps_bound t =
    Array.fold_left (fun acc s -> acc + Maj.steps_bound s.majority) 0 t.stages

  let registers t =
    Array.fold_left (fun acc s -> acc + Maj.registers s.majority) 0 t.stages
end

include Make (Exsel_sim.Backend)
