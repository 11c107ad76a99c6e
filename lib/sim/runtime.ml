type op_kind = Read of int | Write of int

type status = Runnable | Done | Crashed

type lifecycle = Spawned | Finished | Killed

exception Stalled
exception Crash_signal

type pending = {
  kind : op_kind;
  apply : unit -> unit;  (* commit the memory effect and resume the fiber *)
  kill : unit -> unit;  (* unwind the fiber with Crash_signal *)
}

type proc = {
  pid : int;
  name : string;
  owner : t;
      (* the runtime that spawned this process — lets ambient observers
         (spans, probes) attribute events to the right runtime even when
         several runtimes are live in one domain *)
  mutable status : status;
  mutable pending_op : pending option;
  mutable steps : int;
  mutable rpos : int;
      (* position in the runnable index, or -1 when not runnable *)
  mutable lsig : int;
      (* running signature of committed operations; only maintained when
         the runtime has state tracking enabled (explorer memoization) *)
}

and t = {
  memory : Memory.t;
  mutable proc_tbl : proc array;  (* dense by pid; first [nprocs] valid *)
  mutable nprocs : int;
  mutable run_idx : proc array;
      (* pid-sorted dense index of runnable processes; first [nrunnable]
         valid.  Pids only grow, and a process leaves the set exactly once
         (Done or Crashed), so appends keep it sorted and the one
         shift-remove per process is amortized O(1) per commit. *)
  mutable nrunnable : int;
  mutable commits : int;
  mutable max_step : int;
  mutable track_sigs : bool;
  mutable hooks : (proc -> op_kind -> unit) list;
  mutable life_hooks : (proc -> lifecycle -> unit) list;
  mutable capture_values : bool;
      (* when set (a value-carrying trace is attached), each commit renders
         the value read or written into [last_value]; off by default so the
         untraced commit loop pays one branch, nothing more *)
  mutable last_value : string;
}

type _ Effect.t +=
  | E_read : 'a Register.t -> 'a Effect.t
  | E_write : 'a Register.t * 'a -> unit Effect.t

let create memory =
  {
    memory;
    proc_tbl = [||];
    nprocs = 0;
    run_idx = [||];
    nrunnable = 0;
    commits = 0;
    max_step = 0;
    track_sigs = false;
    hooks = [];
    life_hooks = [];
    capture_values = false;
    last_value = "";
  }

let memory t = t.memory

let sig_mix h x = ((h * 0x01000193) + x + 0x517cc1b7) land max_int

(* The process whose body is executing right now.  Each domain runs at
   most one fiber at a time, so one save/restore slot per domain suffices
   even across nested runtimes — but the slot must be domain-local, not
   process-global: with a shared ref, concurrent runtimes on different
   domains would clobber each other's attribution (and racing writes to
   an unsynchronized ref are undefined under OCaml 5 domains). *)
let active_key : proc option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_proc () = !(Domain.DLS.get active_key)

let with_active p f =
  let slot = Domain.DLS.get active_key in
  let saved = !slot in
  slot := Some p;
  Fun.protect ~finally:(fun () -> slot := saved) f

let read r = Effect.perform (E_read r)
let write r v = Effect.perform (E_write (r, v))

let fire_lifecycle t p lc =
  match t.life_hooks with
  | [] -> ()
  | hooks -> List.iter (fun hook -> hook p lc) hooks

let idx_add t p =
  (if t.nrunnable = Array.length t.run_idx then
     let bigger = Array.make (max 8 (2 * t.nrunnable)) p in
     Array.blit t.run_idx 0 bigger 0 t.nrunnable;
     t.run_idx <- bigger);
  t.run_idx.(t.nrunnable) <- p;
  p.rpos <- t.nrunnable;
  t.nrunnable <- t.nrunnable + 1

let idx_remove t p =
  if p.rpos >= 0 then begin
    (* shift left so the index stays pid-sorted.  Each process is removed
       at most once, so the total shifting work is O(nprocs * nrunnable)
       per execution: negligible next to the commits it serves when
       processes finish by committing, but quadratic for a caller that
       crashes many processes in ascending pid order (crash from the top
       down instead, as the lower-bound adversary does) *)
    for i = p.rpos to t.nrunnable - 2 do
      let q = t.run_idx.(i + 1) in
      t.run_idx.(i) <- q;
      q.rpos <- i
    done;
    t.nrunnable <- t.nrunnable - 1;
    p.rpos <- -1
  end

let spawn t ~name body =
  let p =
    {
      pid = t.nprocs;
      name;
      owner = t;
      status = Runnable;
      pending_op = None;
      steps = 0;
      rpos = -1;
      lsig = 0;
    }
  in
  (if t.nprocs = Array.length t.proc_tbl then
     let bigger = Array.make (max 8 (2 * t.nprocs)) p in
     Array.blit t.proc_tbl 0 bigger 0 t.nprocs;
     t.proc_tbl <- bigger);
  t.proc_tbl.(t.nprocs) <- p;
  t.nprocs <- t.nprocs + 1;
  let open Effect.Deep in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          p.status <- Done;
          p.pending_op <- None);
      exnc =
        (fun e ->
          match e with
          | Crash_signal ->
              p.status <- Crashed;
              p.pending_op <- None
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_read r ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.pending_op <-
                    Some
                      {
                        kind = Read (Register.id r);
                        apply =
                          (fun () ->
                            p.pending_op <- None;
                            p.steps <- p.steps + 1;
                            let v = Register.commit_read r in
                            if t.capture_values then
                              t.last_value <- Register.render r v;
                            if t.track_sigs then
                              p.lsig <-
                                sig_mix (sig_mix p.lsig (Register.id r))
                                  (Hashtbl.hash v);
                            with_active p (fun () -> continue k v));
                        kill = (fun () -> with_active p (fun () -> discontinue k Crash_signal));
                      })
          | E_write (r, v) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.pending_op <-
                    Some
                      {
                        kind = Write (Register.id r);
                        apply =
                          (fun () ->
                            p.pending_op <- None;
                            p.steps <- p.steps + 1;
                            Register.commit_write r v;
                            if t.capture_values then
                              t.last_value <- Register.render r v;
                            if t.track_sigs then
                              p.lsig <-
                                sig_mix (sig_mix p.lsig (Register.id r)) (-1);
                            with_active p (fun () -> continue k ()));
                        kill = (fun () -> with_active p (fun () -> discontinue k Crash_signal));
                      })
          | _ -> None);
    }
  in
  with_active p (fun () -> match_with body () handler);
  if p.status = Runnable then idx_add t p;
  fire_lifecycle t p Spawned;
  (match p.status with
  | Runnable -> ()
  | Done -> fire_lifecycle t p Finished
  | Crashed -> fire_lifecycle t p Killed);
  p

let nprocs t = t.nprocs

let proc_by_pid t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Runtime.proc_by_pid: no process with pid %d" pid)
  else t.proc_tbl.(pid)

let procs t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.proc_tbl.(i) :: acc) in
  go (t.nprocs - 1) []

let pid p = p.pid
let proc_name p = p.name
let owner p = p.owner
let status p = p.status
let steps p = p.steps

let pending p =
  match p.pending_op with None -> None | Some pd -> Some pd.kind

let commit t p =
  match p.status, p.pending_op with
  | Runnable, Some pd ->
      t.commits <- t.commits + 1;
      pd.apply ();
      if p.steps > t.max_step then t.max_step <- p.steps;
      if p.status <> Runnable then idx_remove t p;
      List.iter (fun hook -> hook p pd.kind) t.hooks;
      (match p.status with
      | Runnable -> ()
      | Done -> fire_lifecycle t p Finished
      | Crashed -> fire_lifecycle t p Killed)
  | _, _ -> invalid_arg "Runtime.commit: process is not runnable"

let crash t p =
  match p.status, p.pending_op with
  | Runnable, Some pd ->
      p.pending_op <- None;
      pd.kill ();
      if p.status <> Runnable then idx_remove t p;
      fire_lifecycle t p Killed
  | Runnable, None ->
      (* spawned but suspended state lost: mark directly *)
      p.status <- Crashed;
      idx_remove t p;
      fire_lifecycle t p Killed
  | (Done | Crashed), _ -> ()

(* {2 Runnable-index queries — the scheduler/explorer hot path} *)

let num_runnable t = t.nrunnable
let all_quiet t = t.nrunnable = 0

let nth_runnable t k =
  if k < 0 || k >= t.nrunnable then
    invalid_arg (Printf.sprintf "Runtime.nth_runnable: index %d out of %d" k t.nrunnable)
  else t.run_idx.(k)

let first_runnable t = if t.nrunnable = 0 then None else Some t.run_idx.(0)

let next_runnable_after t pid =
  (* binary search in the pid-sorted index for the least pid' > pid *)
  let lo = ref 0 and hi = ref t.nrunnable in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.run_idx.(mid).pid <= pid then lo := mid + 1 else hi := mid
  done;
  if !lo < t.nrunnable then Some t.run_idx.(!lo) else None

let runnable_rank p = if p.rpos >= 0 then Some p.rpos else None

let iter_runnable t f =
  for i = 0 to t.nrunnable - 1 do
    f t.run_idx.(i)
  done

let runnable t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.run_idx.(i) :: acc) in
  go (t.nrunnable - 1) []

let commits t = t.commits
let max_steps t = t.max_step

(* {2 State signatures (explorer memoization)} *)

let enable_state_tracking t = t.track_sigs <- true

let state_signature t =
  let h = ref (Memory.fingerprint t.memory) in
  for i = 0 to t.nprocs - 1 do
    let p = t.proc_tbl.(i) in
    let s = match p.status with Runnable -> 1 | Done -> 2 | Crashed -> 3 in
    h := sig_mix (sig_mix !h s) p.lsig
  done;
  !h

let run ?max_commits t policy =
  let budget = ref max_commits in
  let rec loop () =
    (match !budget with
    | Some b when b <= 0 -> if not (all_quiet t) then raise Stalled
    | _ -> (
        match policy t with
        | None -> ()
        | Some p ->
            commit t p;
            (match !budget with
            | Some b -> budget := Some (b - 1)
            | None -> ());
            loop ()))
  in
  loop ()

let on_commit t hook = t.hooks <- hook :: t.hooks
let on_lifecycle t hook = t.life_hooks <- hook :: t.life_hooks
let set_value_capture t flag = t.capture_values <- flag
let last_value t = t.last_value
