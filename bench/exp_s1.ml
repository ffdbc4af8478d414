(* S1 — million-link interference engine: the ε-sparsified, spatially
   tiled W (Dps_interference.Tiled, docs/SCALING.md) against the dense
   Measure construction at scale.

   Workload: a constant-density link cloud (Topology.link_cloud) with
   side 2·√m and unit-length links under the linear power assignment
   (alpha = 4), i.e. the Section 6.1 matrix W(ℓ, ℓ') = a_p(ℓ', ℓ). On
   this geometry every affectance is positive, so the dense matrix holds
   all m² entries: ~16 M (col, weight) pairs at m = 4096 and an
   impossible ~10^10 (hundreds of GB) at m = 10^5. The tiled path keeps
   O(window) entries per row for a documented ε = 0.1 error bound.

   Per size the experiment reports, for the tiled engine:
   - construction wall clock and links/sec, sequential and with the
     DPS_BENCH_JOBS fan-out (byte-identical rows either way);
   - stored entries per link and resident bytes per link (memory model);
   - the realized max row error bound (≤ ε by construction);
   - tracker step throughput: Load_tracker add/remove over the tiled
     measure with a periodic ‖W·R‖∞ query — the protocol's hot loop at
     scale;
   - one full whole-vector interference query.

   Dense linear_power is built only for m ≤ dense-cap (4096): above that
   it exhausts memory. At m = 10^5 the dense column reports a PROJECTION
   from the measured per-pair rate at the largest dense size — that
   projection, not a measurement, is the "≥ 50×" speedup figure, and the
   table marks it as such.

   A second arm builds the conflict-graph measure of paper §7.2 at the
   same scale: distance-2 conflict graphs on bidirectional grids of
   side 50 and 159 (m = 9,800 and 100,488 links). Per size it reports
   the build seconds of the graph, the smallest-last order and the
   measure (median of 3), nnz per link, and the process's peak resident
   set (VmHWM) right after one build of all three. VmHWM is the peak of
   the whole process so far: the arm runs before the tiled one, so a
   reading covers this arm's builds up to that size.

   Output: the tables below plus BENCH_S1.json (dps-bench/1, bench "s1")
   at DPS_BENCH_OUT; schema and reading guide in docs/SCALING.md. *)

open Common
module Conflict_graph = Dps_interference.Conflict_graph
module Tiled = Dps_interference.Tiled
module Load_tracker = Dps_interference.Load_tracker
module Tiling = Dps_geometry.Tiling

let epsilon = 0.1

type cell = {
  m : int;
  tiles : int;
  near : int;
  nnz : int;
  bytes : int;
  max_row_bound : float;
  construct_s : float;
  par_jobs : int; (* 0 = no fan-out measurement *)
  par_construct_s : float;
  dense_s : float; (* measured dense construct; 0. when skipped *)
  dense_projected_s : float; (* projection at this m; 0. until known *)
  step_ops_per_sec : float;
  query_s : float;
}

let physics_for m =
  let rng = Rng.create ~seed:(7100 + m) () in
  let side = 2. *. sqrt (float_of_int m) in
  let g = Topology.link_cloud rng ~links:m ~side ~length:1. in
  Physics.make (Params.make ~alpha:4. ~beta:1. ~noise:1e-9 ()) (Power.linear 2.) g

(* Deterministic fractional load in [0, 1) per link. *)
let random_load m =
  let rng = Rng.create ~seed:(7200 + m) () in
  Array.init m (fun _ -> Rng.float rng 1.)

(* Tracker hot loop: alternating add/remove over a stride-7919 link walk
   with a full ‖W·R‖∞ query every 64 updates. *)
let step_run measure ~ops () =
  let m = Measure.size measure in
  let tr = Load_tracker.create measure in
  let acc = ref 0. in
  for i = 0 to ops - 1 do
    let e = i * 7919 mod m in
    if i land 1 = 0 then Load_tracker.add tr e else Load_tracker.remove tr e;
    if i land 63 = 63 then acc := !acc +. Load_tracker.interference tr
  done;
  !acc

let run_cell ~m ~dense_cap ~runs ~jobs =
  let phys = physics_for m in
  let build ~jobs () = Sinr_measure.linear_power_tiled ~jobs ~epsilon phys in
  let meas, construct_s =
    Common.median_time ~warmup:1 ~runs (build ~jobs:1)
      ~equal:(fun a b -> Tiled.nnz a = Tiled.nnz b)
  in
  let par_jobs, par_construct_s =
    if jobs <= 1 then (0, 0.)
    else
      let par_meas, t =
        Common.median_time ~warmup:1 ~runs (build ~jobs)
          ~equal:(fun a b -> Tiled.nnz a = Tiled.nnz b)
      in
      if Tiled.nnz par_meas <> Tiled.nnz meas then
        failwith "exp_s1: parallel construction disagrees with sequential";
      (jobs, t)
  in
  let dense_s =
    if m > dense_cap then 0.
    else
      let d, t =
        Common.median_time ~warmup:1 ~runs (fun () ->
            Sinr_measure.linear_power phys)
      in
      ignore (Measure.size d);
      t
  in
  let ops = if smoke then 200 else 20_000 in
  let measure = Tiled.as_measure meas in
  let _, step_s =
    Common.median_time ~warmup:1 ~runs (step_run measure ~ops)
      ~equal:Float.equal
  in
  let load = random_load m in
  let _, query_s =
    Common.median_time ~warmup:1 ~runs
      (fun () -> Measure.interference measure load)
      ~equal:Float.equal
  in
  { m;
    tiles = Tiling.tiles (Tiled.tiling meas);
    near = Tiled.near_radius meas;
    nnz = Tiled.nnz meas;
    bytes = Tiled.bytes meas;
    max_row_bound = Tiled.max_row_bound meas;
    construct_s;
    par_jobs;
    par_construct_s;
    dense_s;
    dense_projected_s = 0.;
    step_ops_per_sec = float_of_int ops /. step_s;
    query_s }

(* Fill in the dense projection for cells where dense was skipped, from
   the per-pair rate of the largest measured dense cell. *)
let project_dense cells =
  let rate =
    List.fold_left
      (fun acc c ->
        if c.dense_s > 0. then
          Some (float_of_int c.m *. float_of_int c.m /. c.dense_s)
        else acc)
      None cells
  in
  match rate with
  | None -> cells
  | Some pairs_per_sec ->
    List.map
      (fun c ->
        if c.dense_s > 0. then c
        else
          { c with
            dense_projected_s =
              float_of_int c.m *. float_of_int c.m /. pairs_per_sec })
      cells

(* --- the conflict-graph arm --- *)

type conflict_cell = {
  side : int;
  links : int;
  graph_s : float;
  order_s : float;
  measure_s : float;
  conflict_nnz : int;
  hwm_mib : float option;  (* None where /proc/self/status is missing *)
}

(* Peak resident set of this process so far, from VmHWM (Linux). *)
let vm_hwm_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> Some (float_of_int kb /. 1024.)
        | None -> scan ())
    in
    let r = scan () in
    close_in ic;
    r

let run_conflict_cell ~side ~runs =
  let g = Topology.grid ~rows:side ~cols:side ~spacing:10. in
  (* One untimed build of all three for the peak. *)
  let cg = Conflict_graph.distance2 g in
  let order = Conflict_graph.degeneracy_order cg in
  let measure = Conflict_graph.to_measure cg ~order in
  let hwm_mib = vm_hwm_mib () in
  let time f = snd (Common.median_time ~warmup:0 ~runs f) in
  { side;
    links = Graph.link_count g;
    graph_s = time (fun () -> Conflict_graph.distance2 g);
    order_s = time (fun () -> Conflict_graph.degeneracy_order cg);
    measure_s = time (fun () -> Conflict_graph.to_measure cg ~order);
    conflict_nnz = Measure.nnz measure;
    hwm_mib }

(* --- BENCH_S1.json --- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_json path conflict_cells cells =
  let oc = open_out path in
  let entry ~config ~metric ~value ~jobs =
    Printf.sprintf
      "    {\"config\": \"%s\", \"metric\": \"%s\", \"value\": %g, \
       \"jobs\": %d}"
      (json_escape config) metric value jobs
  in
  let entries =
    List.concat_map
      (fun c ->
        let config = Printf.sprintf "link-cloud/eps=%g/m=%d" epsilon c.m in
        let fm = float_of_int c.m in
        [ entry ~config ~metric:"construct_links_per_sec"
            ~value:(fm /. c.construct_s) ~jobs:1;
          entry ~config ~metric:"nnz_per_link"
            ~value:(float_of_int c.nnz /. fm) ~jobs:1;
          entry ~config ~metric:"bytes_per_link"
            ~value:(float_of_int c.bytes /. fm) ~jobs:1;
          entry ~config ~metric:"max_row_bound" ~value:c.max_row_bound ~jobs:1;
          entry ~config ~metric:"step_ops_per_sec" ~value:c.step_ops_per_sec
            ~jobs:1;
          entry ~config ~metric:"query_links_per_sec" ~value:(fm /. c.query_s)
            ~jobs:1 ]
        @ (if c.par_jobs = 0 then []
           else
             [ entry ~config ~metric:"construct_links_per_sec"
                 ~value:(fm /. c.par_construct_s) ~jobs:c.par_jobs ])
        @ (if c.dense_s > 0. then
             [ entry ~config ~metric:"dense_construct_links_per_sec"
                 ~value:(fm /. c.dense_s) ~jobs:1;
               entry ~config ~metric:"dense_speedup_measured"
                 ~value:(c.dense_s /. c.construct_s) ~jobs:1 ]
           else if c.dense_projected_s > 0. then
             [ entry ~config ~metric:"dense_speedup_projected"
                 ~value:(c.dense_projected_s /. c.construct_s) ~jobs:1 ]
           else []))
      cells
  in
  let conflict_entries =
    List.concat_map
      (fun c ->
        let config = Printf.sprintf "conflict-d2/side=%d/m=%d" c.side c.links in
        [ entry ~config ~metric:"graph_build_s" ~value:c.graph_s ~jobs:1;
          entry ~config ~metric:"order_build_s" ~value:c.order_s ~jobs:1;
          entry ~config ~metric:"measure_build_s" ~value:c.measure_s ~jobs:1;
          entry ~config ~metric:"nnz_per_link"
            ~value:(float_of_int c.conflict_nnz /. float_of_int c.links)
            ~jobs:1 ]
        @
        match c.hwm_mib with
        | Some v -> [ entry ~config ~metric:"vm_hwm_mib" ~value:v ~jobs:1 ]
        | None -> [])
      conflict_cells
  in
  let entries = conflict_entries @ entries in
  Printf.fprintf oc
    "{\n  \"schema\": \"dps-bench/1\",\n  \"bench\": \"s1\",\n  \"entries\": \
     [\n%s\n  ]\n}\n"
    (String.concat ",\n" entries);
  close_out oc

let run () =
  Printf.printf "\n=== S1: tiled sparse interference engine at scale ===\n%!";
  let runs = if smoke then 2 else 3 in
  let conflict_cells =
    List.map
      (fun side ->
        let c = run_conflict_cell ~side:(grid_dim side) ~runs in
        Printf.printf "  conflict-d2 m=%d done\n%!" c.links;
        c)
      (sweep [ 50; 159 ])
  in
  Tbl.print ~title:"S1: distance-2 conflict grids (median wall clock)"
    ~header:[ "side"; "m"; "graph s"; "order s"; "measure s"; "nnz/link"; "VmHWM MiB" ]
    (List.map
       (fun c ->
         [ Tbl.I c.side;
           Tbl.I c.links;
           Tbl.F4 c.graph_s;
           Tbl.F4 c.order_s;
           Tbl.F4 c.measure_s;
           Tbl.F2 (float_of_int c.conflict_nnz /. float_of_int c.links);
           (match c.hwm_mib with Some v -> Tbl.F2 v | None -> Tbl.S "-") ])
       conflict_cells);
  let sizes = sweep [ 1024; 4096; 100_000 ] in
  let sizes = List.map links sizes in
  let dense_cap = 4096 in
  let cells =
    List.map
      (fun m ->
        let c = run_cell ~m ~dense_cap ~runs ~jobs in
        Printf.printf "  m=%d done\n%!" c.m;
        c)
      sizes
  in
  let cells = project_dense cells in
  Tbl.print
    ~title:
      (Printf.sprintf "S1: tiled engine, link cloud, eps=%g (median wall clock)"
         epsilon)
    ~header:
      [ "m"; "tiles"; "near"; "nnz/link"; "B/link"; "max-bound"; "build s";
        "par s"; "jobs"; "dense s"; "speedup"; "step ops/s"; "query s" ]
    (List.map
       (fun c ->
         let fm = float_of_int c.m in
         [ Tbl.I c.m;
           Tbl.I c.tiles;
           Tbl.I c.near;
           Tbl.F2 (float_of_int c.nnz /. fm);
           Tbl.F2 (float_of_int c.bytes /. fm);
           Tbl.F c.max_row_bound;
           Tbl.F4 c.construct_s;
           Tbl.F4 c.par_construct_s;
           Tbl.I c.par_jobs;
           Tbl.F4 c.dense_s;
           (if c.dense_s > 0. then Tbl.F2 (c.dense_s /. c.construct_s)
            else if c.dense_projected_s > 0. then
              Tbl.S
                (Printf.sprintf "%.0fx (proj)"
                   (c.dense_projected_s /. c.construct_s))
            else Tbl.S "-");
           Tbl.F c.step_ops_per_sec;
           Tbl.F4 c.query_s ])
       cells);
  let out =
    match Sys.getenv_opt "DPS_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_S1.json"
  in
  emit_json out conflict_cells cells;
  Tbl.note
    "dense skipped above m=%d (memory: ~28 bytes x m^2); speedups there are \
     projections from the measured per-pair rate.\n"
    dense_cap;
  Tbl.note "wrote %s; schema and reading guide: docs/SCALING.md\n" out
