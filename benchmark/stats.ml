(* Order statistics over measured samples.

   Timings are kept as exact samples, never bucketed: a quantile read
   off a log-bucketed histogram snaps to bucket bounds and would repeat
   bit-for-bit across runs, hiding real run-to-run variation. *)

(* A growable float buffer: the hot loops push one value per operation.
   Given [cap], it keeps a uniform sample of at most [cap] of the values
   pushed (reservoir sampling, from a fixed seed), so a traced run's
   millions of span durations stay small. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int; mutable pushed : int; cap : int }

  let create ?(cap = max_int) () = { data = Array.make 1024 0.0; len = 0; pushed = 0; cap }
  let reservoir = Random.State.make [| 17 |]

  let push t v =
    t.pushed <- t.pushed + 1;
    if t.len < t.cap then begin
      if t.len = Array.length t.data then begin
        let bigger = Array.make (2 * t.len) 0.0 in
        Array.blit t.data 0 bigger 0 t.len;
        t.data <- bigger
      end;
      t.data.(t.len) <- v;
      t.len <- t.len + 1
    end
    else
      let j = Random.State.int reservoir t.pushed in
      if j < t.len then t.data.(j) <- v

  (* Values pushed, kept or not. *)
  let length t = t.pushed

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

(* Linear interpolation between the order statistics around rank
   q·(n−1); 0 for an empty sample. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  quantile_sorted a q

let median values = quantile values 0.5

(* First and third quartile with Python's statistics.quantiles(n=4)
   default ("exclusive") method, so the spreads this program reports
   match the ones the contract computes.  Fewer than two values have no
   spread: both quartiles are the value itself. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let at i =
      (* Python's integer arithmetic, including its extrapolation when
         the clamped index moves away from the exact rank *)
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (at 1, at 3)

(* Interquartile distance as a share of the median (0 when the median
   is 0). *)
let spread values =
  let q1, q3 = quartiles values in
  let m = median values in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
