(* Every metric the benchmark prints, with its unit; BENCHMARK.json
   describes the same list and the self-test holds the two equal.  Every
   workload prints every metric of its pass: a per-layer metric of a
   layer the workload does not run reads 0. *)

let workloads = [ "lease-cycle"; "lease-openloop"; "rename-burst"; "certify-sim" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_us", "us");
    ("op_p90_us", "us");
    ("ops_per_s", "1/s");
    ("reg_ops_per_op", "count");
    ("served_share", "ratio");
  ]

let per_layer =
  let ns name qs = List.map (fun q -> (Printf.sprintf "%s_ns_%s" name q, "ns")) qs in
  [ ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%") ]
  @ List.map (fun l -> (l ^ ".self_pct", "%")) Common.layers
  @ ns "router.route" [ "p50" ]
  @ [ ("router.rejects", "count"); ("router.spills", "count"); ("router.recycles", "count") ]
  @ ns "core.create" [ "p50" ]
  @ List.concat_map (fun op -> ns ("core." ^ op) [ "p50"; "p99" ]) [ "join"; "acquire"; "release" ]
  @ List.concat_map
      (fun g ->
        List.concat_map
          (fun kind ->
            [
              (Printf.sprintf "core.%s.reads_per_%s" g kind, "count");
              (Printf.sprintf "core.%s.writes_per_%s" g kind, "count");
            ])
          [ "join"; "acquire"; "release" ])
      [ "entry"; "hold"; "gen" ]
  @ [ ("names_used", "count") ]
  @ List.map
      (fun l -> (Printf.sprintf "adaptive.%s.ops_per_join" l, "count"))
      [ "lvl0"; "lvl1"; "lvl2"; "reserve" ]
  @ ns "efficient.create" [ "p50" ]
  @ ns "efficient.rename" [ "p50"; "p99" ]
  @ List.map
      (fun g -> (Printf.sprintf "efficient.%s.ops_per_rename" g, "count"))
      [ "ma"; "plog"; "final" ]
  @ ns "engine.batch" [ "p50" ]
  @ ns "engine.spawn" [ "p50" ]
  @ ns "engine.join" [ "p50" ]
  @ [ ("engine.utilization", "ratio"); ("engine.batches", "count") ]
  @ [ ("generator.late_us_p99", "us"); ("generator.offered", "count");
      ("generator.admitted", "count") ]
  @ List.concat_map
      (fun (a : Exsel_conformance.Adapter.t) ->
        [
          (Printf.sprintf "certify.%s.cell_s" a.id, "s");
          (Printf.sprintf "certify.%s.init_s" a.id, "s");
          (Printf.sprintf "certify.%s.commits" a.id, "count");
        ])
      Certify.adapters

(* The catalog's metrics in order, taking each value from [measured]
   and 0 where the workload has none. *)
let complete catalog (measured : Common.metric list) =
  List.iter
    (fun (m : Common.metric) ->
      match List.assoc_opt m.name catalog with
      | Some u when u = m.unit_ -> ()
      | _ -> invalid_arg ("Catalog.complete: uncatalogued metric " ^ m.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Common.metric) -> m.name = name) measured with
      | Some m -> m
      | None -> Common.metric name unit_ 0.0)
    catalog
