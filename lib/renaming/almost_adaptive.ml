module Span = Exsel_obs.Span

let span_reserve = "almost-adaptive:reserve"

let rec ceil_lg n = if n <= 1 then 0 else 1 + ceil_lg ((n + 1) / 2)

module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    n:int ->
    inputs:int ->
    t

  val levels : t -> int
  val rename : t -> me:int -> int
  val rename_leveled : t -> me:int -> int * int
  val name_bound_for_contention : t -> k:int -> int
  val reserve_uses : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Polylog = Polylog_rename.Make (B)
  module MA = Moir_anderson.Make (B)

  type memory = B.memory

  type level = { polylog : Polylog.t; range : Name_range.range; span_label : string }

  type t = {
    levels : level array;
    reserve : MA.t;
    reserve_range : Name_range.range;
    reserve_uses : int Atomic.t;  (* concurrent increments on native *)
  }

  let create ?params ~rng mem ~name ~n ~inputs =
    if n <= 0 then invalid_arg "Almost_adaptive.create: n must be positive";
    if inputs <= 0 then invalid_arg "Almost_adaptive.create: inputs must be positive";
    let ranges = Name_range.allocator () in
    let levels =
      Array.init
        (ceil_lg n + 1)
        (fun i ->
          let k = min n (1 lsl i) in
          let polylog =
            Polylog.create ?params ~rng:(Exsel_sim.Rng.split rng) mem
              ~name:(Printf.sprintf "%s.lvl%d" name i)
              ~k ~inputs
          in
          {
            polylog;
            range = Name_range.take ranges (Polylog.names polylog);
            span_label = Printf.sprintf "almost-adaptive:level=%d" i;
          })
    in
    let reserve = MA.create mem ~name:(name ^ ".reserve") ~side:n in
    let reserve_range = Name_range.take ranges (MA.capacity reserve) in
    { levels; reserve; reserve_range; reserve_uses = Atomic.make 0 }

  let levels t = Array.length t.levels

  let rename_leveled t ~me =
    let rec go i =
      if i >= Array.length t.levels then begin
        Atomic.incr t.reserve_uses;
        match Span.wrap span_reserve (fun () -> MA.rename t.reserve ~me) with
        | Some w -> (Name_range.global t.reserve_range w, i)
        | None ->
            (* unreachable: the reserve grid has side n >= contention *)
            assert false
      end
      else
        let lvl = t.levels.(i) in
        match Span.wrap lvl.span_label (fun () -> Polylog.rename lvl.polylog ~me) with
        | Some w -> (Name_range.global lvl.range w, i)
        | None -> go (i + 1)
    in
    go 0

  let rename t ~me = fst (rename_leveled t ~me)

  let name_bound_for_contention t ~k =
    let top = min (Array.length t.levels - 1) (ceil_lg k) in
    let last = t.levels.(top).range in
    last.Name_range.base + last.Name_range.size

  let reserve_uses t = Atomic.get t.reserve_uses

  let registers t =
    Array.fold_left (fun acc l -> acc + Polylog.registers l.polylog) 0 t.levels
    + (MA.side t.reserve * (MA.side t.reserve + 1))
end

include Make (Exsel_sim.Backend)
