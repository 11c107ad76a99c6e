type task = { name : string; body : unit -> unit }

type state = Fresh | Running | Finished

type task_event = {
  te_index : int;
  te_name : string;
  te_worker : int;
  te_start_ns : int64;
  te_stop_ns : int64;
}

type worker_stat = { ws_worker : int; ws_tasks : int; ws_busy_ns : int64 }

type telemetry = {
  tl_domains : int;
  tl_start_ns : int64;
  tl_stop_ns : int64;
  tl_spawn_ns : int64;
  tl_join_ns : int64;
  tl_events : task_event array;
  tl_workers : worker_stat array;
}

type t = {
  mutable tasks : task list;  (* reversed spawn order *)
  mutable count : int;
  mutable state : state;
  mutable telemetry : telemetry option;
}

exception Task_failed of string * exn

let create () = { tasks = []; count = 0; state = Fresh; telemetry = None }

let spawn t ~name body =
  if t.state <> Fresh then invalid_arg "Engine.spawn: engine already run";
  t.tasks <- { name; body } :: t.tasks;
  t.count <- t.count + 1

let tasks t = t.count
let telemetry t = t.telemetry

let wall_ns tl = Int64.sub tl.tl_stop_ns tl.tl_start_ns

let busy_ns tl =
  Array.fold_left (fun acc w -> Int64.add acc w.ws_busy_ns) 0L tl.tl_workers

let utilization tl =
  let wall = Int64.to_float (wall_ns tl) *. float_of_int tl.tl_domains in
  if wall <= 0.0 then 0.0 else Int64.to_float (busy_ns tl) /. wall

(* One run's shared state.  A shared cursor hands the tasks out in spawn
   order; the first failing task wins the failure CAS, and the queue
   still drains so every task runs exactly once.  Each slot of
   [worker_of]/[start_ns]/[stop_ns] is written by exactly the one worker
   that claimed the task, and read by the caller only after [finished]
   counts every task: a worker adds the tasks it ran once the cursor has
   run out, and that atomic addition is the happens-before edge, so
   plain arrays suffice.  The overhead per task is two monotonic clock
   reads — negligible next to a rename — so recording is always on. *)
type batch = {
  work : task array;
  cursor : int Atomic.t;
  finished : int Atomic.t;
  failure : (string * exn) option Atomic.t;
  worker_of : int array;
  start_ns : int64 array;
  stop_ns : int64 array;
}

(* A parked helper domain.  The caller posts a batch into [mail] and
   signals [wake].  A batch posted before the helper picked up the
   previous one replaces it; that previous run's caller drains its own
   queue. *)
type helper = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable mail : batch option;  (** guarded by [lock] *)
  mutable stop : bool;  (** guarded by [lock] *)
}

(* The helpers of one calling domain: helper [j] is worker [j + 1] of
   every batch handed to it.  Only the owning domain touches [helpers],
   and only it waits on [idle], one run at a time (a nested run waits
   inside a task, while the outer run is not waiting). *)
type pool = {
  mutable helpers : (helper * unit Domain.t) array;
  idle_lock : Mutex.t;
  idle : Condition.t;  (** the caller blocks here for claimed tasks *)
}

(* Claim tasks off the cursor until it runs out, running each on worker
   [w]; returns how many this worker ran.  With one worker this is the
   whole run, in spawn order on the calling domain — the deterministic
   mode the cross-validation tests pin down. *)
let drain b w =
  let n = Array.length b.work in
  let rec loop ran =
    let i = Atomic.fetch_and_add b.cursor 1 in
    if i >= n then ran
    else begin
      let task = b.work.(i) in
      b.worker_of.(i) <- w;
      b.start_ns.(i) <- Monotonic_clock.now ();
      (try task.body ()
       with e ->
         ignore (Atomic.compare_and_set b.failure None (Some (task.name, e))));
      b.stop_ns.(i) <- Monotonic_clock.now ();
      loop (ran + 1)
    end
  in
  loop 0

(* Wait until [finished] counts every task.  The cursor has run out, so
   every task is claimed: the wait is for tasks the helpers are running,
   never for a helper to wake.  Spin briefly, then block. *)
let await p b =
  let n = Array.length b.work in
  let rec spin k =
    if Atomic.get b.finished < n then
      if k > 0 then begin
        Domain.cpu_relax ();
        spin (k - 1)
      end
      else begin
        Mutex.lock p.idle_lock;
        while Atomic.get b.finished < n do
          Condition.wait p.idle p.idle_lock
        done;
        Mutex.unlock p.idle_lock
      end
  in
  spin 1000

(* Helpers park on their own condition variable between batches, never
   spinning: a spinning domain would stall every stop-the-world minor
   collection.  The helper whose count completes a batch wakes the
   caller; one that woke after the cursor ran out ran nothing and adds
   nothing. *)
let rec serve p h w =
  Mutex.lock h.lock;
  while Option.is_none h.mail && not h.stop do
    Condition.wait h.wake h.lock
  done;
  let mail = h.mail in
  h.mail <- None;
  Mutex.unlock h.lock;
  match mail with
  | Some b ->
      let ran = drain b w in
      let n = Array.length b.work in
      if ran > 0 && Atomic.fetch_and_add b.finished ran + ran = n then begin
        Mutex.lock p.idle_lock;
        Condition.signal p.idle;
        Mutex.unlock p.idle_lock
      end;
      serve p h w
  | None -> ()

let post h b =
  Mutex.lock h.lock;
  h.mail <- Some b;
  Condition.signal h.wake;
  Mutex.unlock h.lock

let shutdown p =
  Array.iter
    (fun (h, _) ->
      Mutex.lock h.lock;
      h.stop <- true;
      Condition.signal h.wake;
      Mutex.unlock h.lock)
    p.helpers;
  Array.iter (fun (_, d) -> Domain.join d) p.helpers;
  p.helpers <- [||]

(* Each calling domain owns its pool (DESIGN.md §10): created on the
   domain's first multi-domain run, stopped and joined when the domain
   exits. *)
let pool_key =
  Domain.DLS.new_key (fun () ->
      let p =
        {
          helpers = [||];
          idle_lock = Mutex.create ();
          idle = Condition.create ();
        }
      in
      Domain.at_exit (fun () -> shutdown p);
      p)

(* Grow the pool to [k] helpers.  [Domain.spawn] fails once the runtime's
   domain limit is reached; the pool then stays as it was and the batch
   runs on the helpers it has. *)
let grow p k =
  try
    while Array.length p.helpers < k do
      let h =
        {
          lock = Mutex.create ();
          wake = Condition.create ();
          mail = None;
          stop = false;
        }
      in
      let w = Array.length p.helpers + 1 in
      let d = Domain.spawn (fun () -> serve p h w) in
      p.helpers <- Array.append p.helpers [| (h, d) |]
    done
  with Failure _ -> ()

let run t ~domains =
  if domains <= 0 then invalid_arg "Engine.run: domains must be positive";
  if t.state <> Fresh then invalid_arg "Engine.run: engine already run";
  t.state <- Running;
  let work = Array.of_list (List.rev t.tasks) in
  let n = Array.length work in
  let b =
    {
      work;
      cursor = Atomic.make 0;
      finished = Atomic.make 0;
      failure = Atomic.make None;
      worker_of = Array.make n (-1);
      start_ns = Array.make n 0L;
      stop_ns = Array.make n 0L;
    }
  in
  let t_run0 = Monotonic_clock.now () in
  let wanted = min domains n - 1 in
  let pool = if wanted > 0 then Some (Domain.DLS.get pool_key) else None in
  let helpers =
    match pool with
    | None -> 0
    | Some p ->
        grow p wanted;
        let k = min wanted (Array.length p.helpers) in
        for j = 0 to k - 1 do
          post (fst p.helpers.(j)) b
        done;
        k
  in
  let t_handed = Monotonic_clock.now () in
  let ran = drain b 0 in
  let t_drained = Monotonic_clock.now () in
  (match pool with
  | Some p -> if Atomic.fetch_and_add b.finished ran + ran < n then await p b
  | None -> ());
  let t_run1 = Monotonic_clock.now () in
  t.state <- Finished;
  let workers = helpers + 1 in
  let events =
    Array.init n (fun i ->
        {
          te_index = i;
          te_name = work.(i).name;
          te_worker = b.worker_of.(i);
          te_start_ns = b.start_ns.(i);
          te_stop_ns = b.stop_ns.(i);
        })
  in
  let stats =
    Array.init workers (fun w ->
        let tasks_run = ref 0 and busy = ref 0L in
        Array.iter
          (fun e ->
            if e.te_worker = w then begin
              incr tasks_run;
              busy := Int64.add !busy (Int64.sub e.te_stop_ns e.te_start_ns)
            end)
          events;
        { ws_worker = w; ws_tasks = !tasks_run; ws_busy_ns = !busy })
  in
  t.telemetry <-
    Some
      {
        tl_domains = workers;
        tl_start_ns = t_run0;
        tl_stop_ns = t_run1;
        tl_spawn_ns = Int64.sub t_handed t_run0;
        tl_join_ns = Int64.sub t_run1 t_drained;
        tl_events = events;
        tl_workers = stats;
      };
  match Atomic.get b.failure with
  | Some (name, e) -> raise (Task_failed (name, e))
  | None -> ()
