(* Exact register-operation counts, taken on a replica of a workload run
   on one domain over Probe_backend.Make (Backend).

   A workload is written once against {!SUBSTRATE}; the timed passes
   instantiate it on the plain native backend, the count replica on the
   probed one.  [around mem kind f] brackets one public call: on the
   probed substrate it attributes the register reads and writes the call
   made to [kind] ("join", "acquire", ...) and to the register group its
   allocation name falls in.  Exact because the replica runs its tasks
   one after another. *)

module type SUBSTRATE = sig
  include Exsel_backend.Intf.S with type runner = Exsel_native.Engine.t

  val fresh : unit -> memory
  val around : memory -> string -> (unit -> 'a) -> 'a
end

module Plain : SUBSTRATE = struct
  include Exsel_native.Backend

  let fresh = create
  let around _ _ f = f ()
end

module Probed = Exsel_native.Probe_backend.Make (Exsel_native.Backend)

(* Group of a register: the components of its allocation name after the
   instance's own name, at most two, without array or grid indices — so
   "s0e0.entry.lvl1.ma(0,2).X" is "entry.lvl1", "s0e0.gen[3]" is "gen"
   and "b.ma(3,4).X" is "ma.X". *)
let group name =
  let strip c =
    let cut = ref (String.length c) in
    String.iteri (fun i ch -> if (ch = '[' || ch = '(') && i < !cut then cut := i) c;
    String.sub c 0 !cut
  in
  match String.split_on_char '.' name with
  | _ :: a :: b :: _ -> strip a ^ "." ^ strip b
  | [ _; a ] -> strip a
  | _ -> name

(* (kind, group) -> (reads, writes), and calls per kind. *)
let by_group : (string * string, int * int) Hashtbl.t = Hashtbl.create 64
let calls : (string, int) Hashtbl.t = Hashtbl.create 8

let reset () =
  Hashtbl.reset by_group;
  Hashtbl.reset calls

let totals mem =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (name, r, w) ->
      let g = group name in
      let r0, w0 = Option.value (Hashtbl.find_opt t g) ~default:(0, 0) in
      Hashtbl.replace t g (r0 + r, w0 + w))
    (Probed.counts mem);
  t

module Counting : SUBSTRATE = struct
  include Probed

  let fresh () = Probed.wrap (Exsel_native.Backend.create ())

  let around mem kind f =
    let before = totals mem in
    let result = f () in
    Hashtbl.iter
      (fun g (r, w) ->
        let r0, w0 = Option.value (Hashtbl.find_opt before g) ~default:(0, 0) in
        if r > r0 || w > w0 then begin
          let key = (kind, g) in
          let kr, kw = Option.value (Hashtbl.find_opt by_group key) ~default:(0, 0) in
          Hashtbl.replace by_group key (kr + r - r0, kw + w - w0)
        end)
      (totals mem);
    Hashtbl.replace calls kind (1 + Option.value (Hashtbl.find_opt calls kind) ~default:0);
    result
end

let calls_of kind = Option.value (Hashtbl.find_opt calls kind) ~default:0

(* Reads and writes made by [kind] calls in groups satisfying [select]. *)
let ops kind select =
  Hashtbl.fold
    (fun (k, g) (r, w) (ar, aw) -> if k = kind && select g then (ar + r, aw + w) else (ar, aw))
    by_group (0, 0)

let first_component g =
  match String.index_opt g '.' with Some i -> String.sub g 0 i | None -> g

let second_component g =
  match String.index_opt g '.' with
  | Some i -> String.sub g (i + 1) (String.length g - i - 1)
  | None -> ""

(* Register operations of every counted call, per call of [per]. *)
let total_per kinds ~per =
  let total =
    List.fold_left
      (fun acc k ->
        let r, w = ops k (fun _ -> true) in
        acc + r + w)
      0 kinds
  in
  float_of_int total /. float_of_int (max 1 (calls_of per))

(* Reads (or writes) per [kind] call in the groups under [top]. *)
let per_call kind top =
  let n = calls_of kind in
  let r, w = ops kind (fun g -> first_component g = top) in
  let f x = if n = 0 then 0.0 else float_of_int x /. float_of_int n in
  (f r, f w)
