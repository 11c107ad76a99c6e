(* Tests for the lossless-expander substrate (Lemmas 2-3). *)

open Exsel_expander
module Rng = Exsel_sim.Rng

let test_bipartite_validation () =
  let ok =
    Bipartite.create ~inputs:2 ~outputs:3 ~neighbours:[| [| 0; 1 |]; [| 1; 2 |] |]
  in
  Alcotest.(check int) "degree" 2 (Bipartite.degree ok);
  Alcotest.(check int) "edges" 4 (Bipartite.edges ok);
  let invalid f = Alcotest.(check bool) "rejects" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () ->
      Bipartite.create ~inputs:2 ~outputs:3 ~neighbours:[| [| 0; 0 |]; [| 1; 2 |] |]);
  invalid (fun () ->
      Bipartite.create ~inputs:2 ~outputs:3 ~neighbours:[| [| 0; 3 |]; [| 1; 2 |] |]);
  invalid (fun () ->
      Bipartite.create ~inputs:2 ~outputs:3 ~neighbours:[| [| 0 |]; [| 1; 2 |] |]);
  invalid (fun () -> Bipartite.create ~inputs:0 ~outputs:3 ~neighbours:[||])

let test_params_monotone () =
  let p = Params.practical in
  let w1 = Params.width p ~inputs:1024 ~l:4 in
  let w2 = Params.width p ~inputs:1024 ~l:8 in
  Alcotest.(check bool) "width grows with l" true (w2 > w1);
  let d1 = Params.degree p ~inputs:1024 ~l:8 in
  let d2 = Params.degree p ~inputs:65536 ~l:8 in
  Alcotest.(check bool) "degree grows with inputs" true (d2 > d1);
  Alcotest.(check bool) "paper width galactic vs practical" true
    (Params.width Params.paper ~inputs:1024 ~l:4 > 100 * w1)

let test_sample_shape () =
  let rng = Rng.create ~seed:7 in
  let g = Gen.sample rng Params.practical ~inputs:256 ~l:8 in
  Alcotest.(check int) "inputs" 256 (Bipartite.inputs g);
  Alcotest.(check int) "outputs as planned" (Params.width Params.practical ~inputs:256 ~l:8)
    (Bipartite.outputs g);
  Alcotest.(check int) "degree as planned" (Params.degree Params.practical ~inputs:256 ~l:8)
    (Bipartite.degree g)

let test_sample_deterministic () =
  let g1 = Gen.sample (Rng.create ~seed:3) Params.practical ~inputs:128 ~l:4 in
  let g2 = Gen.sample (Rng.create ~seed:3) Params.practical ~inputs:128 ~l:4 in
  let same = ref true in
  for v = 0 to 127 do
    if Bipartite.neighbours g1 v <> Bipartite.neighbours g2 v then same := false
  done;
  Alcotest.(check bool) "same seed, same graph" true !same

(* Seeded graphs whose adjacency is pinned by digest: [Gen.draw_distinct]
   shuffles the whole output range when Δ is at least a third of it and
   rejection-samples otherwise, and the shapes below take both branches. *)
let golden_graphs () =
  let sampled =
    List.concat_map
      (fun (params, inputs, ls) ->
        List.concat_map
          (fun l ->
            List.map
              (fun seed -> Gen.sample (Rng.create ~seed) params ~inputs ~l)
              [ 1; 2; 3 ])
          ls)
      [
        (Params.practical, 1024, [ 1; 2; 4; 5; 8; 16 ]);
        (Params.practical, 96, [ 2; 6 ]);
        (Params.tight, 256, [ 2; 8 ]);
      ]
  in
  Gen.sample_dims (Rng.create ~seed:9) ~degree:6 ~inputs:100 ~outputs:18
  :: Gen.sample_dims (Rng.create ~seed:9) ~degree:40 ~inputs:50 ~outputs:30
  :: sampled

let test_adjacency_golden () =
  let graphs = golden_graphs () in
  let shuffled g = 3 * Bipartite.degree g >= Bipartite.outputs g in
  Alcotest.(check bool) "both draw branches covered" true
    (List.exists shuffled graphs && List.exists (fun g -> not (shuffled g)) graphs);
  let buf = Buffer.create 4096 in
  List.iter
    (fun g ->
      Printf.bprintf buf "%d/%d/%d:" (Bipartite.inputs g) (Bipartite.outputs g)
        (Bipartite.degree g);
      for v = 0 to Bipartite.inputs g - 1 do
        Array.iter (Printf.bprintf buf "%d,") (Bipartite.neighbours g v);
        Buffer.add_char buf ';'
      done)
    graphs;
  Alcotest.(check string) "adjacency digest" "b36e1d2c8fcb92baa77144145f2accf8"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_unique_neighbours_hand_graph () =
  (* inputs 0 and 1 share output 0; input 0 uniquely owns 1, input 1 owns 2,
     input 2 owns 3 and 4. *)
  let g =
    Bipartite.create ~inputs:3 ~outputs:5
      ~neighbours:[| [| 0; 1 |]; [| 0; 2 |]; [| 3; 4 |] |]
  in
  Alcotest.(check (list int)) "all three have unique neighbours" [ 0; 1; 2 ]
    (List.sort compare (Check.unique_neighbour_inputs g [ 0; 1; 2 ]));
  Alcotest.(check int) "neighbourhood" 5 (Check.neighbourhood_size g [ 0; 1; 2 ]);
  Alcotest.(check bool) "majority holds" true (Check.majority_ok g [ 0; 1; 2 ])

let test_unique_neighbours_collision () =
  (* two inputs with identical adjacency: no unique neighbours at all *)
  let g =
    Bipartite.create ~inputs:2 ~outputs:2 ~neighbours:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  Alcotest.(check (list int)) "none unique" []
    (Check.unique_neighbour_inputs g [ 0; 1 ]);
  Alcotest.(check bool) "majority fails" false (Check.majority_ok g [ 0; 1 ]);
  Alcotest.(check bool) "singleton fine" true (Check.majority_ok g [ 0 ])

let test_duplicate_subset_rejected () =
  let g = Bipartite.create ~inputs:2 ~outputs:2 ~neighbours:[| [| 0 |]; [| 1 |] |] in
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (Check.unique_neighbour_inputs g [ 0; 0 ]); false
     with Invalid_argument _ -> true)

(* sum_{x<=l} (n choose x) by Pascal's rule, adding with saturation at
   max_int: an independent reference for [Check.exhaustive_cost]. *)
let pascal_cost ~inputs ~l =
  let add a b = if a > max_int - b then max_int else a + b in
  let row = Array.make (l + 1) 0 in
  row.(0) <- 1;
  for _ = 1 to inputs do
    for x = l downto 1 do
      row.(x) <- add row.(x) row.(x - 1)
    done
  done;
  Array.fold_left add 0 row

let test_exhaustive_cost () =
  Alcotest.(check int) "n=4 l=2: 1+4+6" 11 (Check.exhaustive_cost ~inputs:4 ~l:2);
  Alcotest.(check int) "n=10 l=1: 1+10" 11 (Check.exhaustive_cost ~inputs:10 ~l:1);
  Alcotest.(check int) "l above inputs: 2^n" 32 (Check.exhaustive_cost ~inputs:5 ~l:9);
  Alcotest.(check bool) "saturates" true (Check.exhaustive_cost ~inputs:500 ~l:250 > 1_000_000);
  (* a product that wraps to a positive value once gave a finite cost
     here; the true sum is about 2.9e19 *)
  Alcotest.(check int) "n=1024 l=8 saturates" max_int
    (Check.exhaustive_cost ~inputs:1024 ~l:8);
  (* and a product that wrapped negative saturated a sum of about 5.5e17 *)
  Alcotest.(check int) "n=64 l=24 is exact" (pascal_cost ~inputs:64 ~l:24)
    (Check.exhaustive_cost ~inputs:64 ~l:24);
  Alcotest.(check bool) "n=64 l=24 below max_int" true
    (Check.exhaustive_cost ~inputs:64 ~l:24 < max_int);
  List.iter
    (fun inputs ->
      for l = 0 to 64 do
        Alcotest.(check int)
          (Printf.sprintf "n=%d l=%d" inputs l)
          (pascal_cost ~inputs ~l)
          (Check.exhaustive_cost ~inputs ~l)
      done)
    [ 1; 2; 7; 24; 63; 64; 65; 100; 128; 160; 300; 528; 1024; 4096 ]

let test_exhaustive_detects_violation () =
  let g =
    Bipartite.create ~inputs:2 ~outputs:2 ~neighbours:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  match Check.verify_exhaustive g ~l:2 with
  | Ok () -> Alcotest.fail "should have found the colliding pair"
  | Error xs -> Alcotest.(check (list int)) "violating pair" [ 0; 1 ] (List.sort compare xs)

let test_sampled_graph_passes_checks () =
  let rng = Rng.create ~seed:42 in
  let g = Gen.sample rng Params.practical ~inputs:512 ~l:8 in
  (match Check.verify_sampled (Rng.create ~seed:1) g ~l:8 ~trials:300 with
  | Ok () -> ()
  | Error xs ->
      Alcotest.failf "sampled violation on subset of size %d" (List.length xs));
  match Check.verify_greedy_adversarial g ~l:8 ~restarts:10 ~seed:5 with
  | Ok () -> ()
  | Error xs ->
      Alcotest.failf "adversarial violation on subset of size %d" (List.length xs)

let test_expansion_counts =
  QCheck.Test.make ~name:"neighbourhood at most x*degree and at least degree"
    ~count:100
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, size) ->
      let rng = Rng.create ~seed in
      let g = Gen.sample rng Params.practical ~inputs:64 ~l:8 in
      let subset = List.init (min size 64) (fun i -> i) in
      let nb = Check.neighbourhood_size g subset in
      nb <= List.length subset * Bipartite.degree g && nb >= Bipartite.degree g)

let test_majority_random_subsets =
  QCheck.Test.make ~name:"majority holds on random subsets of sampled graphs"
    ~count:60
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, l_sub) ->
      let rng = Rng.create ~seed in
      let g = Gen.sample rng Params.practical ~inputs:256 ~l:8 in
      let subset_rng = Rng.create ~seed:(seed + 1000) in
      let all = Array.init 256 (fun i -> i) in
      Rng.shuffle subset_rng all;
      let subset = Array.to_list (Array.sub all 0 l_sub) in
      Check.majority_ok g subset)

(* [Check]'s list and [Hashtbl] counting from before its per-call arrays,
   kept as the reference the array routine must agree with: same
   verdicts, same violating subsets, same draws. *)
module Reference = struct
  let touch_counts g xs =
    let counts = Hashtbl.create 64 in
    List.iter
      (fun v ->
        Array.iter
          (fun w ->
            let c = try Hashtbl.find counts w with Not_found -> 0 in
            Hashtbl.replace counts w (c + 1))
          (Bipartite.neighbours g v))
      xs;
    counts

  let unique_neighbour_inputs g xs =
    let counts = touch_counts g xs in
    List.filter
      (fun v ->
        Array.exists (fun w -> Hashtbl.find counts w = 1) (Bipartite.neighbours g v))
      xs

  let majority_ok g xs =
    2 * List.length (unique_neighbour_inputs g xs) >= List.length xs

  let verify_exhaustive g ~l =
    let n = Bipartite.inputs g in
    let violation = ref None in
    let rec go start chosen size =
      match !violation with
      | Some _ -> ()
      | None ->
          if size > 0 && not (majority_ok g chosen) then violation := Some chosen
          else if size < l then
            for v = start to n - 1 do
              go (v + 1) (v :: chosen) (size + 1)
            done
    in
    go 0 [] 0;
    match !violation with None -> Ok () | Some xs -> Error xs

  (* while 3·size < n, one draw per member and a repeat redrawn;
     otherwise the prefix of a full shuffle *)
  let random_subset rng n size =
    if 3 * size < n then
      let rec draw acc k =
        if k = size then List.rev acc
        else
          let v = Rng.int rng n in
          if List.mem v acc then draw acc k else draw (v :: acc) (k + 1)
      in
      draw [] 0
    else
      let all = Array.init n (fun i -> i) in
      Rng.shuffle rng all;
      Array.to_list (Array.sub all 0 size)

  let verify_sampled rng g ~l ~trials =
    let n = Bipartite.inputs g in
    let size = min l n in
    let rec go t =
      if t = 0 then Ok ()
      else
        let xs = random_subset rng n size in
        if majority_ok g xs then go (t - 1) else Error xs
    in
    go trials
end

let verdict = Alcotest.(result unit (list int))

(* The array checks against the reference on one seeded graph; the number
   of violations the exhaustive check found. *)
let agree params ~seed ~inputs ~l =
  let g = Gen.sample (Rng.create ~seed) params ~inputs ~l in
  let subsets = Rng.create ~seed:(seed + 1) in
  for size = 1 to min inputs (l + 2) do
    let xs = Reference.random_subset subsets inputs size in
    Alcotest.(check bool) "majority_ok" (Reference.majority_ok g xs) (Check.majority_ok g xs);
    Alcotest.(check (list int)) "unique_neighbour_inputs"
      (Reference.unique_neighbour_inputs g xs)
      (Check.unique_neighbour_inputs g xs);
    Alcotest.(check int) "neighbourhood_size"
      (Hashtbl.length (Reference.touch_counts g xs))
      (Check.neighbourhood_size g xs)
  done;
  let exhaustive = Check.verify_exhaustive g ~l in
  Alcotest.check verdict "verify_exhaustive" (Reference.verify_exhaustive g ~l) exhaustive;
  let sampled = Rng.create ~seed:(seed + 2) and ref_sampled = Rng.create ~seed:(seed + 2) in
  Alcotest.check verdict "verify_sampled"
    (Reference.verify_sampled ref_sampled g ~l ~trials:40)
    (Check.verify_sampled sampled g ~l ~trials:40);
  Alcotest.(check int64) "verify_sampled leaves the generator where the reference does"
    (Rng.bits64 ref_sampled) (Rng.bits64 sampled);
  Result.is_error exhaustive

(* l = 4 only at inputs <= 24, where the exhaustive check decides its
   leaves beneath two levels of touched members and still runs fast *)
let seed_inputs_l =
  QCheck.make
    ~print:QCheck.Print.(triple int int int)
    QCheck.Gen.(
      triple small_int (int_range 8 48) (int_range 1 4) >|= fun (seed, inputs, l) ->
      (seed, (if l = 4 then 8 + (inputs mod 17) else inputs), l))

let test_checks_agree_with_reference =
  QCheck.Test.make ~name:"array checks agree with list counting on seeded graphs"
    ~count:60 seed_inputs_l
    (fun (seed, inputs, l) ->
      ignore (agree Params.practical ~seed ~inputs ~l);
      ignore (agree Params.tight ~seed ~inputs ~l);
      true)

let test_subset_draw =
  QCheck.Test.make ~name:"subset draw: size distinct inputs, a shuffle prefix when dense"
    ~count:300
    QCheck.(triple small_int (int_range 1 64) (int_range 0 64))
    (fun (seed, inputs, size) ->
      let size = size mod (inputs + 1) in
      let xs = Gen.draw_distinct (Rng.create ~seed) ~degree:size ~outputs:inputs in
      let sorted = List.sort_uniq compare (Array.to_list xs) in
      List.length sorted = size
      && List.for_all (fun v -> 0 <= v && v < inputs) sorted
      && (3 * size < inputs
         ||
         let all = Array.init inputs (fun i -> i) in
         Rng.shuffle (Rng.create ~seed) all;
         xs = Array.sub all 0 size))

let test_tight_violations_agree () =
  (* tight graphs fail on some subsets: both checks must report the same
     first violation, not merely both fail *)
  let failures = ref 0 in
  for seed = 1 to 20 do
    if agree Params.tight ~seed ~inputs:40 ~l:3 then incr failures
  done;
  Alcotest.(check bool) "some tight graph fails its exhaustive check" true (!failures > 0)

let test_functional_graph_lazy_and_valid () =
  (* a functional graph over a huge input space costs nothing until
     touched, and validates its adjacency on access *)
  let g =
    Bipartite.functional ~inputs:1_000_000 ~outputs:64 ~degree:4 (fun v ->
        Array.init 4 (fun i -> (v + (17 * i)) mod 64))
  in
  Alcotest.(check int) "degree" 4 (Bipartite.degree g);
  Alcotest.(check int) "adjacency computed on demand" 4
    (Array.length (Bipartite.neighbours g 999_999));
  let bad =
    Bipartite.functional ~inputs:10 ~outputs:4 ~degree:2 (fun _ -> [| 1; 1 |])
  in
  Alcotest.(check bool) "duplicate adjacency rejected on access" true
    (try ignore (Bipartite.neighbours bad 0); false with Invalid_argument _ -> true)

let test_functional_out_of_range_input () =
  let g = Bipartite.functional ~inputs:4 ~outputs:4 ~degree:1 (fun v -> [| v |]) in
  Alcotest.(check bool) "input bound enforced" true
    (try ignore (Bipartite.neighbours g 4); false with Invalid_argument _ -> true)

let test_paper_preset_dimensions () =
  (* Lemma 3 verbatim: degree 4 lg(N/L), width 12e4 L lg(N/L) *)
  let inputs = 1 lsl 20 and l = 16 in
  let d = Params.degree Params.paper ~inputs ~l in
  let w = Params.width Params.paper ~inputs ~l in
  Alcotest.(check int) "degree 4*16" 64 d;
  Alcotest.(check bool) "width ~ 12e4*16*16" true
    (let expect = 12.0 *. exp 4.0 *. 16.0 *. 16.0 in
     float_of_int w >= expect && float_of_int w < expect +. 2.0)

let test_tight_preset_narrower () =
  let inputs = 4096 and l = 16 in
  Alcotest.(check bool) "tight narrower than practical" true
    (Params.width Params.tight ~inputs ~l < Params.width Params.practical ~inputs ~l)

let test_greedy_adversarial_finds_planted_violation () =
  (* a graph whose first two inputs share all their neighbours: local
     search must find the violating pair *)
  let neighbours =
    Array.init 32 (fun v ->
        if v < 2 then [| 0; 1 |] else [| 2 + (v mod 30); (2 + ((v * 7) mod 30)) mod 32 |])
  in
  (* fix up duplicates in the filler rows *)
  let neighbours =
    Array.map
      (fun adj -> if adj.(0) = adj.(1) then [| adj.(0); (adj.(0) + 1) mod 32 |] else adj)
      neighbours
  in
  let g = Bipartite.create ~inputs:32 ~outputs:32 ~neighbours in
  match Check.verify_greedy_adversarial g ~l:2 ~restarts:150 ~seed:3 with
  | Ok () -> Alcotest.fail "planted violation not found"
  | Error xs -> Alcotest.(check int) "pair-sized violation" 2 (List.length xs)

let test_lazy_graph_deterministic_adjacency =
  QCheck.Test.make ~name:"sampled adjacency is a pure function of the seed" ~count:100
    QCheck.(pair small_int (int_range 0 255))
    (fun (seed, v) ->
      let g1 = Gen.sample (Rng.create ~seed) Params.practical ~inputs:256 ~l:4 in
      let g2 = Gen.sample (Rng.create ~seed) Params.practical ~inputs:256 ~l:4 in
      Bipartite.neighbours g1 v = Bipartite.neighbours g2 v)

let test_unique_neighbour_monotone =
  QCheck.Test.make ~name:"adding members never helps uniqueness" ~count:80
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, size) ->
      let g = Gen.sample (Rng.create ~seed:11) Params.tight ~inputs:128 ~l:8 in
      let rng = Rng.create ~seed in
      let all = Array.init 128 (fun i -> i) in
      Rng.shuffle rng all;
      let smaller = Array.to_list (Array.sub all 0 (size - 1)) in
      let larger = Array.to_list (Array.sub all 0 size) in
      let u_small = Check.unique_neighbour_inputs g smaller in
      let u_large = Check.unique_neighbour_inputs g larger in
      (* members of the smaller set that lose uniqueness in the larger set
         can exist; members that were not unique cannot become unique *)
      List.for_all
        (fun v -> List.mem v u_small || not (List.mem v u_large))
        smaller)

let () =
  Alcotest.run "exsel_expander"
    [
      ( "bipartite",
        [
          Alcotest.test_case "validation" `Quick test_bipartite_validation;
          Alcotest.test_case "params monotone" `Quick test_params_monotone;
        ] );
      ( "gen",
        [
          Alcotest.test_case "shape" `Quick test_sample_shape;
          Alcotest.test_case "deterministic" `Quick test_sample_deterministic;
          Alcotest.test_case "adjacency golden" `Quick test_adjacency_golden;
        ] );
      ( "check",
        [
          Alcotest.test_case "hand graph uniques" `Quick test_unique_neighbours_hand_graph;
          Alcotest.test_case "collision graph" `Quick test_unique_neighbours_collision;
          Alcotest.test_case "duplicate subset rejected" `Quick test_duplicate_subset_rejected;
          Alcotest.test_case "exhaustive cost" `Quick test_exhaustive_cost;
          Alcotest.test_case "exhaustive detects violation" `Quick test_exhaustive_detects_violation;
          Alcotest.test_case "sampled graph certified" `Quick test_sampled_graph_passes_checks;
          QCheck_alcotest.to_alcotest test_expansion_counts;
          QCheck_alcotest.to_alcotest test_majority_random_subsets;
          QCheck_alcotest.to_alcotest test_checks_agree_with_reference;
          QCheck_alcotest.to_alcotest test_subset_draw;
          Alcotest.test_case "tight violations agree" `Quick test_tight_violations_agree;
        ] );
      ( "lazy-and-presets",
        [
          Alcotest.test_case "functional graph lazy+valid" `Quick test_functional_graph_lazy_and_valid;
          Alcotest.test_case "functional input bound" `Quick test_functional_out_of_range_input;
          Alcotest.test_case "paper preset dimensions" `Quick test_paper_preset_dimensions;
          Alcotest.test_case "tight preset narrower" `Quick test_tight_preset_narrower;
          Alcotest.test_case "adversarial search finds planted pair" `Quick
            test_greedy_adversarial_finds_planted_violation;
          QCheck_alcotest.to_alcotest test_lazy_graph_deterministic_adjacency;
          QCheck_alcotest.to_alcotest test_unique_neighbour_monotone;
        ] );
    ]
