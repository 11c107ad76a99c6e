module Runtime = Exsel_sim.Runtime

type stage = {
  index : int;
  pool_before : int;
  op_class : [ `Read | `Write ];
  register : int;
  pool_after : int;
}

type result = {
  stages : stage list;
  forced_stages : int;
  theoretical_stages : int;
  bound : int;
  pool_final : int;
  residue : int;
  max_steps : int;
}

let theoretical_stages ~n_names ~k ~m ~r =
  max 0 (min (k - 2) (Exsel_renaming.Spec.lower_bound_steps ~k ~n_names ~m ~r - 1))

(* Partition the runnable pool by pending-operation class and pick the
   most-contended register of the majority class. *)
let classify pool =
  let tagged =
    List.filter_map
      (fun p ->
        match Runtime.pending p with
        | Some (Runtime.Read reg) -> Some (`Read, reg, p)
        | Some (Runtime.Write reg) -> Some (`Write, reg, p)
        | None -> None)
      pool
  in
  let reads = List.filter (fun (c, _, _) -> c = `Read) tagged in
  let writes = List.filter (fun (c, _, _) -> c = `Write) tagged in
  let cls, members =
    if List.length reads >= List.length writes then (`Read, reads) else (`Write, writes)
  in
  (* largest same-register group *)
  let by_reg = Hashtbl.create 16 in
  List.iter
    (fun (_, reg, p) ->
      let cur = try Hashtbl.find by_reg reg with Not_found -> [] in
      Hashtbl.replace by_reg reg (p :: cur))
    members;
  let best =
    Hashtbl.fold
      (fun reg ps acc ->
        match acc with
        | Some (_, best_ps) when List.length best_ps >= List.length ps -> acc
        | _ -> Some (reg, ps))
      by_reg None
  in
  match best with
  | None -> None
  | Some (reg, ps) -> Some (cls, reg, List.rev ps)

let force ?stage_budget rt ~spawn ~n_names ~k ~m ~r =
  let procs = Array.init n_names spawn in
  let t_target =
    match stage_budget with
    | Some t -> max 0 t
    | None -> theoretical_stages ~n_names ~k ~m ~r
  in
  let residue = ref [] in
  let rec stage_loop i pool stages =
    if i >= t_target || List.length pool <= 1 then (i, pool, List.rev stages)
    else
      match classify pool with
      | None -> (i, pool, List.rev stages)
      | Some (cls, reg, members) ->
          List.iter
            (fun p ->
              if Runtime.status p = Runtime.Runnable then Runtime.commit rt p)
            members;
          (if cls = `Write then
             match List.rev members with
             | last :: _ -> residue := last :: !residue
             | [] -> ());
          let info =
            {
              index = i;
              pool_before = List.length pool;
              op_class = cls;
              register = reg;
              pool_after = List.length members;
            }
          in
          stage_loop (i + 1) members (info :: stages)
  in
  let initial_pool =
    Array.to_list procs |> List.filter (fun p -> Runtime.status p = Runtime.Runnable)
  in
  let forced, pool, stages = stage_loop 0 initial_pool [] in
  (* The execution we account for is the theorem's K: the residue (the
     writers whose values are visible) plus enough pool members to reach k
     contenders; everything else is crashed, so the surviving contention
     matches the algorithm's design. *)
  let residue_pids = List.map Runtime.pid !residue in
  let pool_only =
    List.filter (fun p -> not (List.mem (Runtime.pid p) residue_pids)) pool
  in
  let keep = max 2 (k - List.length !residue) in
  let pool_kept = List.filteri (fun i _ -> i < keep) pool_only in
  let survivors = pool_kept @ !residue in
  let is_survivor p = List.exists (fun q -> Runtime.pid q = Runtime.pid p) survivors in
  (* Crash from the highest pid down: each crash removes the process from
     the runtime's pid-sorted runnable index, which shifts the entries
     above it, so removing the top entry first keeps the N crashes linear
     instead of quadratic (N = 65536 in experiment T7). *)
  for i = Array.length procs - 1 downto 0 do
    if not (is_survivor procs.(i)) then Runtime.crash rt procs.(i)
  done;
  let policy t =
    match List.filter is_survivor (Runtime.runnable t) with
    | [] -> None
    | p :: _ -> Some p
  in
  Runtime.run ~max_commits:50_000_000 rt policy;
  let max_steps =
    List.fold_left (fun acc p -> max acc (Runtime.steps p)) 0 survivors
  in
  {
    stages;
    forced_stages = forced;
    theoretical_stages = t_target;
    bound = 1 + t_target;
    pool_final = List.length pool;
    residue = List.length !residue;
    max_steps;
  }
