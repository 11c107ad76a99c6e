module Make (B : Exsel_backend.Intf.S) = struct

  type 'a t = {
    n : int;
    values : 'a option B.reg array;
    levels : int B.reg array;  (* n+1 = not started *)
  }

  let create mem ~name ~n =
    if n <= 0 then invalid_arg "Immediate_snapshot.create: n must be positive";
    {
      n;
      values =
        Array.init n (fun i ->
            B.alloc mem ~name:(Printf.sprintf "%s.val%d" name i) None);
      levels =
        Array.init n (fun i ->
            B.alloc mem ~name:(Printf.sprintf "%s.lvl%d" name i) (n + 1));
    }

  let size t = t.n

  (* Level descent: stopping at level ℓ exactly when ℓ processes occupy
     levels <= ℓ yields the three properties — the processes that stop at
     the same level see each other (immediacy), and lower levels see
     subsets (containment). *)
  let access t ~me v =
    if me < 0 || me >= t.n then invalid_arg "Immediate_snapshot.access: bad slot";
    B.write t.values.(me) (Some v);
    let rec descend level =
      B.write t.levels.(me) level;
      let below = ref [] in
      for j = 0 to t.n - 1 do
        if B.read t.levels.(j) <= level then below := j :: !below
      done;
      if List.length !below >= level then List.sort compare !below
      else descend (level - 1)
    in
    let members = descend t.n in
    List.map
      (fun j ->
        match B.read t.values.(j) with
        | Some x -> (j, x)
        | None ->
            (* a process at a level has already published its value *)
            assert false)
      members
end
