module Rng = Exsel_sim.Rng

let check_distinct xs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if Hashtbl.mem seen v then
        invalid_arg "Check: duplicate input in subset"
      else Hashtbl.add seen v ())
    xs

(* Touches are counted in an int array indexed by output, all zeros
   between subsets.  [touch touches adj d] adds [d] at every output of one
   member's adjacency. *)
let touch touches adj d =
  for i = 0 to Array.length adj - 1 do
    let w = adj.(i) in
    touches.(w) <- touches.(w) + d
  done

(* [adj] owns an output that is touched [c] times; with a subset's
   touches in place, [c = 1] means the member owns an output that no
   other member touches. *)
let owns c touches adj =
  let rec go i = i < Array.length adj && (touches.(adj.(i)) = c || go (i + 1)) in
  go 0

let has_unique = owns 1

let winners touches adjs =
  List.fold_left (fun n adj -> if has_unique touches adj then n + 1 else n) 0 adjs

let majority touches adjs = 2 * winners touches adjs >= List.length adjs

(* The counting routine: [k ()] runs with the touches of the subset whose
   member adjacencies are [adjs] in place, and [touches] is all zeros
   again when it returns. *)
let counted touches adjs k =
  List.iter (fun adj -> touch touches adj 1) adjs;
  let r = k () in
  List.iter (fun adj -> touch touches adj (-1)) adjs;
  r

(* One-subset queries fetch each member's adjacency once. *)
let members g xs =
  check_distinct xs;
  (Array.make (Bipartite.outputs g) 0, List.map (Bipartite.neighbours g) xs)

let unique_neighbour_inputs g xs =
  let touches, adjs = members g xs in
  counted touches adjs (fun () ->
      List.fold_right2
        (fun v adj acc -> if has_unique touches adj then v :: acc else acc)
        xs adjs [])

let neighbourhood_size g xs =
  let touches, adjs = members g xs in
  counted touches adjs (fun () ->
      Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 touches)

let majority_ok g xs =
  let touches, adjs = members g xs in
  counted touches adjs (fun () -> majority touches adjs)

(* What one [verify_*] call owns: each input's adjacency, drawn the first
   time the call fetches it, and the touch counter.  Nothing outlives the
   call, so a graph holds no mutable state and concurrent checks share
   nothing (DESIGN.md §10). *)
type scratch = {
  graph : Bipartite.t;
  adjacency : int array array;  (* [||] until fetched *)
  touches : int array;
}

let scratch g =
  {
    graph = g;
    adjacency = Array.make (Bipartite.inputs g) [||];
    touches = Array.make (Bipartite.outputs g) 0;
  }

let neighbours s v =
  match s.adjacency.(v) with
  | [||] ->
      let adj = Bipartite.neighbours s.graph v in
      s.adjacency.(v) <- adj;
      adj
  | adj -> adj

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let exhaustive_cost ~inputs ~l =
  (* sum_{x<=l} (inputs choose x), exact until it exceeds max_int.  With
     c = C(inputs, x-1) and g = gcd c x, x/g divides inputs-x+1, so
     C(inputs, x) = (c/g) * ((inputs-x+1) / (x/g)) is a product of exact
     factors that overflows only when C(inputs, x) itself does. *)
  let rec go x acc binom =
    if x > l || x > inputs then acc
    else
      let g = gcd binom x in
      let a = binom / g and b = (inputs - x + 1) / (x / g) in
      if a > max_int / b then max_int
      else
        let binom = a * b in
        if acc > max_int - binom then max_int else go (x + 1) (acc + binom) binom
  in
  if l < 0 then 0 else go 1 1 1

(* Whether S ∪ {v} has a majority, decided from the touches of S alone:
   S is the first [size] adjacencies of [adjs], and [adj_v] is v's.  v
   wins if it owns an output S left untouched; a member of S wins if it
   owns an output S touches once and v does not hold.  Counting stops at
   ⌈(size+1)/2⌉ winners. *)
let majority_with touches adjs size adj_v =
  let need = (size + 2) / 2 and d = Array.length adj_v in
  let keeps_unique adj =
    let rec go i =
      i < Array.length adj
      && ((touches.(adj.(i)) = 1 && not (Bipartite.occurs adj.(i) adj_v d)) || go (i + 1))
    in
    go 0
  in
  let rec count i won =
    won >= need || (i < size && count (i + 1) (if keeps_unique adjs.(i) then won + 1 else won))
  in
  count 0 (if owns 0 touches adj_v then 1 else 0)

let verify_exhaustive g ~l =
  let sc = scratch g in
  let n = Bipartite.inputs g in
  let depth = max 0 (min l n) in
  let chosen = Array.make depth 0 and adjs = Array.make depth [||] in
  let exception Violation of int list in
  (* enumerate subsets of size <= l depth-first: the first [size] entries
     of [chosen] are S and the counter holds S's touches.  Each S ∪ {v} is
     decided from them, and v is touched only to descend below it. *)
  let rec extend start size =
    for v = start to n - 1 do
      let adj = neighbours sc v in
      if not (majority_with sc.touches adjs size adj) then
        raise (Violation (v :: List.init size (fun i -> chosen.(size - 1 - i))));
      if size + 1 < depth then begin
        chosen.(size) <- v;
        adjs.(size) <- adj;
        touch sc.touches adj 1;
        extend (v + 1) (size + 1);
        touch sc.touches adj (-1)
      end
    done
  in
  match if depth > 0 then extend 0 0 with
  | () -> Ok ()
  | exception Violation xs -> Error xs

(* A uniform subset of [size] distinct inputs, drawn the way an input's
   adjacency is. *)
let random_subset rng n size = Array.to_list (Gen.draw_distinct rng ~degree:size ~outputs:n)

let verify_sampled rng g ~l ~trials =
  let sc = scratch g in
  let n = Bipartite.inputs g in
  let size = min l n in
  let rec go t =
    if t = 0 then Ok ()
    else
      let xs = random_subset rng n size in
      let adjs = List.map (neighbours sc) xs in
      if counted sc.touches adjs (fun () -> majority sc.touches adjs) then go (t - 1)
      else Error xs
  in
  go trials

(* Local search: starting from a random subset, repeatedly swap a member for
   an outsider if the swap lowers the unique-neighbour count. *)
let verify_greedy_adversarial g ~l ~restarts ~seed =
  let sc = scratch g in
  let n = Bipartite.inputs g in
  let size = min l n in
  let rng = Rng.create ~seed in
  let score xs =
    let adjs = List.map (neighbours sc) xs in
    counted sc.touches adjs (fun () -> winners sc.touches adjs)
  in
  let improve xs =
    let best = ref (score xs, xs) in
    let try_swap out_v in_v =
      let cand = in_v :: List.filter (fun v -> v <> out_v) xs in
      let s = score cand in
      if s < fst !best then best := (s, cand)
    in
    (* probe a bounded number of random swaps to keep the search cheap *)
    for _ = 1 to 32 + (4 * size) do
      let out_v = List.nth xs (Rng.int rng size) in
      let in_v = Rng.int rng n in
      if not (List.mem in_v xs) then try_swap out_v in_v
    done;
    !best
  in
  let rec descend xs s rounds =
    if rounds = 0 then (s, xs)
    else
      let s', xs' = improve xs in
      if s' < s then descend xs' s' (rounds - 1) else (s, xs)
  in
  let rec go r =
    if r = 0 then Ok ()
    else
      let xs = random_subset rng n size in
      let _, worst = descend xs (score xs) 20 in
      if 2 * score worst >= List.length worst then go (r - 1) else Error worst
  in
  go restarts
