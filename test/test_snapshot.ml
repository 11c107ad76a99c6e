(* Tests for the wait-free atomic snapshot. *)

open Exsel_sim
module Snapshot = Exsel_snapshot.Snapshot

let test_sequential_update_scan () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let snap = Snapshot.create mem ~name:"w" ~n:3 ~init:0 in
  let view = ref [||] in
  let _p =
    Runtime.spawn rt ~name:"p" (fun () ->
        Snapshot.update snap ~me:0 7;
        Snapshot.update snap ~me:0 8;
        view := Snapshot.scan snap ~me:0)
  in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check (array int)) "sees own last update" [| 8; 0; 0 |] !view

let test_solo_scan_is_flat_collect () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let snap = Snapshot.create mem ~name:"w" ~n:4 ~init:(-1) in
  let view = ref [||] in
  let _p = Runtime.spawn rt ~name:"p" (fun () -> view := Snapshot.scan snap ~me:0) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check (array int)) "initial view" [| -1; -1; -1; -1 |] !view

let test_scan_linearizable_under_random_schedules () =
  let trials = 40 in
  for seed = 1 to trials do
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let n = 3 in
    let snap = Snapshot.create mem ~name:"w" ~n ~init:0 in
    (* Each updater records (commit_index, comp, value) right after its
       update returns — the commit counter at that point is exactly the
       index of the update's write commit.  A scan records its start/end
       commit indices as its linearization window. *)
    let writes = ref [] in
    let scans = ref [] in
    for i = 0 to n - 1 do
      ignore
        (Runtime.spawn rt ~name:(Printf.sprintf "u%d" i) (fun () ->
             for v = 1 to 3 do
               let value = (10 * (i + 1)) + v in
               Snapshot.update snap ~me:i value;
               writes := (Runtime.commits rt, i, value) :: !writes
             done))
    done;
    ignore
      (Runtime.spawn rt ~name:"scanner" (fun () ->
           let lo = Runtime.commits rt in
           let view = Snapshot.scan snap ~me:0 in
           let hi = Runtime.commits rt in
           scans := (lo, hi, view) :: !scans));
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    (* The recorded write index is the commit counter when the updater
       resumed after its write, i.e. an upper bound on the linearization
       point; validity windows built from it are conservative but sound
       for cut checking because relative order per component is exact. *)
    List.iter
      (fun (lo, hi, view) ->
        let writes =
          List.rev_map
            (fun (at, location, value) -> { Linearize.at; location; value })
            !writes
        in
        let view_pairs = Array.to_list (Array.mapi (fun i v -> (i, v)) view) in
        if
          not
            (Linearize.consistent_cut ~writes ~window:(lo, hi) ~view:view_pairs
               ~init:(fun _ -> 0))
        then
          Alcotest.failf "seed %d: scan view %s is not a consistent cut" seed
            (String.concat ","
               (Array.to_list (Array.map string_of_int view))))
      !scans
  done

let test_scan_never_goes_backwards () =
  (* Repeated scans by one process must observe monotonically advancing
     per-component values (single-writer components only advance). *)
  for seed = 1 to 20 do
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let n = 3 in
    let snap = Snapshot.create mem ~name:"w" ~n ~init:0 in
    for i = 1 to n - 1 do
      ignore
        (Runtime.spawn rt ~name:(Printf.sprintf "u%d" i) (fun () ->
             for v = 1 to 5 do
               Snapshot.update snap ~me:i v
             done))
    done;
    let violation = ref false in
    ignore
      (Runtime.spawn rt ~name:"scanner" (fun () ->
           let prev = ref (Array.make n 0) in
           for _ = 1 to 5 do
             let view = Snapshot.scan snap ~me:0 in
             Array.iteri (fun i v -> if v < !prev.(i) then violation := true) view;
             prev := view
           done));
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    Alcotest.(check bool) (Printf.sprintf "monotone (seed %d)" seed) false !violation
  done

let test_update_embeds_valid_help () =
  (* Force the helping path: a scanner interleaved with a fast updater
     must still return, and the value must be one actually written. *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let snap = Snapshot.create mem ~name:"w" ~n:2 ~init:0 in
  let view = ref [||] in
  let scanner = Runtime.spawn rt ~name:"scanner" (fun () -> view := Snapshot.scan snap ~me:0) in
  let updater =
    Runtime.spawn rt ~name:"updater" (fun () ->
        for v = 1 to 8 do
          Snapshot.update snap ~me:1 v
        done)
  in
  (* adversarial interleaving: one scanner step, then one full update *)
  let rec drive () =
    if Runtime.status scanner = Runtime.Runnable then begin
      Runtime.commit rt scanner;
      let before = Runtime.steps updater in
      let rec updater_burst () =
        if Runtime.status updater = Runtime.Runnable && Runtime.steps updater - before < 30
        then begin
          Runtime.commit rt updater;
          updater_burst ()
        end
      in
      updater_burst ();
      drive ()
    end
  in
  drive ();
  Alcotest.(check bool) "scanner finished" true (Runtime.status scanner = Runtime.Done);
  Alcotest.(check bool) "component 1 saw a written value" true
    (let v = !view.(1) in v >= 0 && v <= 8)

let test_crashed_updater_does_not_block_scan () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let snap = Snapshot.create mem ~name:"w" ~n:2 ~init:0 in
  let updater =
    Runtime.spawn rt ~name:"updater" (fun () ->
        for v = 1 to 100 do
          Snapshot.update snap ~me:1 v
        done)
  in
  (* let the updater make some progress, then crash it mid-update *)
  for _ = 1 to 7 do
    Runtime.commit rt updater
  done;
  Runtime.crash rt updater;
  let view = ref [||] in
  let scanner = Runtime.spawn rt ~name:"scanner" (fun () -> view := Snapshot.scan snap ~me:0) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check bool) "scan finished despite crash" true
    (Runtime.status scanner = Runtime.Done);
  Alcotest.(check int) "own component untouched" 0 !view.(0)

let test_wait_free_solo_scan_steps () =
  (* a solo scan costs exactly 2 collects = 2n reads *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let n = 5 in
  let snap = Snapshot.create mem ~name:"w" ~n ~init:0 in
  let p = Runtime.spawn rt ~name:"p" (fun () -> ignore (Snapshot.scan snap ~me:0)) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check int) "2n reads" (2 * n) (Runtime.steps p)

module IS = Exsel_snapshot.Immediate_snapshot.Make (Exsel_sim.Backend)

let is_run ~n ~participants ~seed =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let is = IS.create mem ~name:"is" ~n in
  let views = Array.make n None in
  List.iter
    (fun slot ->
      ignore
        (Runtime.spawn rt ~name:(string_of_int slot) (fun () ->
             views.(slot) <- Some (IS.access is ~me:slot (100 + slot)))))
    participants;
  Scheduler.run rt (Scheduler.random (Rng.create ~seed));
  views

let check_is_properties ~label views =
  let present =
    Array.to_list views
    |> List.mapi (fun slot v -> (slot, v))
    |> List.filter_map (fun (slot, v) -> Option.map (fun x -> (slot, x)) v)
  in
  (* self-inclusion *)
  List.iter
    (fun (slot, view) ->
      if not (List.mem_assoc slot view) then
        Alcotest.failf "%s: slot %d missing from own view" label slot)
    present;
  (* containment: views totally ordered by inclusion *)
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  List.iter
    (fun (s1, v1) ->
      List.iter
        (fun (s2, v2) ->
          if not (subset v1 v2 || subset v2 v1) then
            Alcotest.failf "%s: views of %d and %d incomparable" label s1 s2)
        present)
    present;
  (* immediacy: q in p's view => q's view included in p's *)
  List.iter
    (fun (_, vp) ->
      List.iter
        (fun (q, _) ->
          match views.(q) with
          | Some vq ->
              if not (subset vq vp) then
                Alcotest.failf "%s: immediacy violated" label
          | None -> ())
        vp)
    present

let test_is_properties_random_schedules () =
  for seed = 1 to 60 do
    let n = 4 in
    let participants = List.init (1 + (seed mod n)) Fun.id in
    let views = is_run ~n ~participants ~seed in
    check_is_properties ~label:(Printf.sprintf "seed %d" seed) views;
    (* every participant got a view *)
    List.iter
      (fun slot ->
        if views.(slot) = None then Alcotest.failf "seed %d: no view" seed)
      participants
  done

let test_is_solo_sees_only_self () =
  let views = is_run ~n:3 ~participants:[ 1 ] ~seed:3 in
  Alcotest.(check (option (list (pair int int)))) "singleton view"
    (Some [ (1, 101) ])
    views.(1)

let test_is_full_participation_largest_view () =
  let n = 3 in
  let views = is_run ~n ~participants:[ 0; 1; 2 ] ~seed:9 in
  (* the largest view contains everyone *)
  let sizes =
    Array.to_list views |> List.filter_map Fun.id |> List.map List.length
  in
  Alcotest.(check int) "max view is full" n (List.fold_left max 0 sizes)

let () =
  Alcotest.run "exsel_snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "sequential update/scan" `Quick test_sequential_update_scan;
          Alcotest.test_case "solo scan" `Quick test_solo_scan_is_flat_collect;
          Alcotest.test_case "scan linearizable (random schedules)" `Quick
            test_scan_linearizable_under_random_schedules;
          Alcotest.test_case "scans monotone" `Quick test_scan_never_goes_backwards;
          Alcotest.test_case "helping path" `Quick test_update_embeds_valid_help;
          Alcotest.test_case "crash tolerance" `Quick test_crashed_updater_does_not_block_scan;
          Alcotest.test_case "solo scan step count" `Quick test_wait_free_solo_scan_steps;
        ] );
      ( "immediate-snapshot",
        [
          Alcotest.test_case "properties (random schedules)" `Quick
            test_is_properties_random_schedules;
          Alcotest.test_case "solo view" `Quick test_is_solo_sees_only_self;
          Alcotest.test_case "full participation" `Quick test_is_full_participation_largest_view;
        ] );
    ]
