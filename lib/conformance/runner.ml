module Runtime = Exsel_sim.Runtime
module Explore = Exsel_sim.Explore

type instance = {
  runtime : Runtime.t;
  check : unit -> (unit, string) result;
}

type spec = {
  algo : string;
  claim : string;
  init : unit -> instance;
}

let explorable spec =
  let init () =
    let i = spec.init () in
    (i, i.runtime)
  in
  (init, fun i _rt -> i.check ())

type decision = Commit of Runtime.proc | Crash of Runtime.proc

type driver = Runtime.t -> decision option

type outcome = {
  schedule : Explore.choice list;
  commits : int;
  max_steps : int;
  crashed : int;
  failure : string option;
}

let drive ?(max_commits = 2_000_000) spec ~driver =
  let inst = spec.init () in
  let rt = inst.runtime in
  let sched = ref [] in
  let commits = ref 0 in
  let crashed = ref 0 in
  let exhausted = ref false in
  let commit p =
    sched := Explore.Step (Runtime.pid p) :: !sched;
    Runtime.commit rt p;
    incr commits;
    if !commits >= max_commits && not (Runtime.all_quiet rt) then
      exhausted := true
  in
  (* regime phase: the driver decides until it relinquishes control *)
  let rec regime () =
    if (not (Runtime.all_quiet rt)) && not !exhausted then
      match driver rt with
      | Some (Commit p) ->
          commit p;
          regime ()
      | Some (Crash p) ->
          (* a regime may race its own crash plan against completion;
             crashing a finished process is a no-op we do not record *)
          if Runtime.status p = Runtime.Runnable then begin
            sched := Explore.Crash (Runtime.pid p) :: !sched;
            Runtime.crash rt p;
            incr crashed
          end;
          regime ()
      | None -> completion ()
  (* completion phase: pid order to quiescence, still recording *)
  and completion () =
    if (not (Runtime.all_quiet rt)) && not !exhausted then
      match Runtime.first_runnable rt with
      | Some p ->
          commit p;
          completion ()
      | None -> ()
  in
  regime ();
  let failure =
    if !exhausted then
      Some
        (Printf.sprintf
           "liveness: %d-commit budget exhausted with %d processes still \
            runnable"
           max_commits (Runtime.num_runnable rt))
    else match inst.check () with Ok () -> None | Error msg -> Some msg
  in
  {
    schedule = List.rev !sched;
    commits = !commits;
    max_steps = Runtime.max_steps rt;
    crashed = !crashed;
    failure;
  }
