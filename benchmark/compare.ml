(* exsel_bench compare: two sets of exsel-benchmark/1 documents under
   the bounds of BENCHMARK.json.

   Each side is a comma-separated list of documents, one per run.  For
   every workload × metric present on both sides it prints the median and
   quartiles of each side's run values and a verdict:
   better or worse when the medians differ by more than the bound (for a
   per-layer metric, which has no bound, when every value of one side
   beats every value of the other), unchanged otherwise — and unresolved
   when a side's own quartile spread is wider than the bound, unless the
   two sides' values do not overlap at all.  The exit code is 1 on any
   end-to-end regression or a higher failed share, else 0. *)

module J = Exsel_obs.Json
module JP = Exsel_testkit.Json_parse

exception Usage of string

type spec_metric = { unit_ : string; higher : bool; bound : float option }

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> raise (Usage msg)
  | s -> ( try JP.parse s with JP.Parse msg -> raise (Usage (path ^ ": " ^ msg)))

let number = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> raise (Usage "expected a number")

let field key v =
  match J.member key v with Some x -> x | None -> raise (Usage ("missing field " ^ key))

let string_field key v =
  match field key v with J.String s -> s | _ -> raise (Usage (key ^ " is not a string"))

let list_field key v =
  match field key v with J.List l -> l | _ -> raise (Usage (key ^ " is not a list"))

(* name -> spec, end-to-end and per-layer alike *)
let load_spec path =
  let doc = read_json path in
  let entries key =
    List.map
      (fun m ->
        ( string_field "name" m,
          {
            unit_ = string_field "unit" m;
            higher = string_field "better" m = "higher";
            bound = Option.map number (J.member "bound" m);
          } ))
      (list_field key doc)
  in
  entries "end_to_end" @ entries "per_layer"

type side = {
  values : (string * string, float list) Hashtbl.t;  (** (workload, metric) *)
  mutable attempted : int;
  mutable failed : int;
}

(* One side: the documents of a comma-separated list, one value per
   document and metric. *)
let load_side arg =
  let side = { values = Hashtbl.create 64; attempted = 0; failed = 0 } in
  List.iter
    (fun path ->
      let doc = read_json path in
      if J.member "schema" doc <> Some (J.String "exsel-benchmark/1") then
        raise (Usage (path ^ ": not an exsel-benchmark/1 document"));
      let workload = string_field "workload" doc in
      side.attempted <- side.attempted + int_of_float (number (field "attempted" doc));
      side.failed <- side.failed + int_of_float (number (field "failed" doc));
      List.iter
        (fun m ->
          let key = (workload, string_field "name" m) in
          let old = Option.value (Hashtbl.find_opt side.values key) ~default:[] in
          Hashtbl.replace side.values key (old @ [ number (field "value" m) ]))
        (list_field "metrics" doc))
    (String.split_on_char ',' arg);
  side

(* Change of [b] against [a] as a share of [a], positive when worse. *)
let worsening spec a b =
  if a = 0.0 then (if b = a then 0.0 else if (b > a) = spec.higher then -1.0 else 1.0)
  else
    let d = (b -. a) /. Float.abs a in
    if spec.higher then -.d else d

let verdict spec av bv =
  let a = Stats.median av and b = Stats.median bv in
  let better_all x y = if spec.higher then x > y else x < y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better_all y x) av) bv in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> better_all x y) av) bv in
  let w = worsening spec a b in
  match spec.bound with
  | None -> if all_better then "better" else if all_worse then "worse" else "unchanged"
  | Some bound ->
      if Float.max (Stats.spread av) (Stats.spread bv) > bound then
        if all_better then "better" else if all_worse then "worse" else "unresolved"
      else if w > bound then "worse"
      else if w < -.bound then "better"
      else "unchanged"

let run ~spec_path a_arg b_arg =
  let spec = load_spec spec_path in
  let a = load_side a_arg and b = load_side b_arg in
  let regressed = ref false in
  let keys =
    List.sort compare
      (Hashtbl.fold (fun k _ acc -> if Hashtbl.mem b.values k then k :: acc else acc) a.values [])
  in
  Printf.printf "%-15s %-32s %-6s %14s %-27s %14s %-27s %8s  %s\n" "workload" "metric" "unit"
    "A" "A q1..q3" "B" "B q1..q3" "change" "verdict";
  List.iter
    (fun ((workload, name) as key) ->
      match List.assoc_opt name spec with
      | None -> ()
      | Some s ->
          let av = Hashtbl.find a.values key and bv = Hashtbl.find b.values key in
          let v = verdict s av bv in
          if v = "worse" && s.bound <> None then regressed := true;
          let qs vs =
            let q1, q3 = Stats.quartiles vs in
            Printf.sprintf "%.6g..%.6g" q1 q3
          in
          let am = Stats.median av and bm = Stats.median bv in
          Printf.printf "%-15s %-32s %-6s %14.6g %-27s %14.6g %-27s %+7.1f%%  %s\n" workload name
            s.unit_ am (qs av) bm (qs bv)
            (if am = 0.0 then 0.0 else 100.0 *. (bm -. am) /. Float.abs am)
            v)
    keys;
  let share s = if s.attempted = 0 then 0.0 else float_of_int s.failed /. float_of_int s.attempted in
  Printf.printf "failed share: A %.6g (%d/%d), B %.6g (%d/%d)\n" (share a) a.failed a.attempted
    (share b) b.failed b.attempted;
  if share b > share a then regressed := true;
  if !regressed then 1 else 0
