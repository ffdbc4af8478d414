(* The end-to-end sparse hot path: the protocol running directly on the
   measure the tiled engine packed, with no densification.
   - at ε = 0 every accessor of the tiled measure equals the dense
     [Sinr_measure.linear_power] bit for bit, per topology family, and at
     ε > 0 every window-built column is the transpose of the stored rows;
   - at ε = 0 a full protocol run on the tiled measure is
     byte-identical to the dense run — report, trajectories and
     telemetry — per topology family;
   - at ε > 0 a run whose config differs only in the measure keeps every
     packet-level observable identical (the measure only sizes frames
     and feeds the failed-buffer potential), and the potential gap obeys
     0 ≤ dense − sparse ≤ error_bound · max failed load, per frame;
   - the parallel stale rescan in [Load_tracker] is bit-identical to the
     sequential one (value and argmax) for any jobs/chunking;
   - a sparse [Scenario.build] never materialises a dense matrix. *)

module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Load_tracker = Dps_interference.Load_tracker
module Topology = Dps_network.Topology
module Path = Dps_network.Path
module Graph = Dps_network.Graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Stability = Dps_core.Stability
module Oracle = Dps_sim.Oracle
module Stochastic = Dps_injection.Stochastic
module Delay_select = Dps_static.Delay_select
module Scenario = Dps_serve.Scenario
module Telemetry = Dps_telemetry.Telemetry
module Memory_sink = Dps_telemetry.Memory_sink

let tolerance = 1e-9
let bits = Int64.bits_of_float

(* --------------------------------------------------------- fixtures *)

let cloud_phys ?(alpha = 4.) ~links seed =
  let rng = Rng.create ~seed () in
  let side = 4. *. sqrt (float_of_int links) in
  let g = Topology.link_cloud rng ~links ~side ~length:1. in
  Physics.make (Params.make ~alpha ~noise:1e-9 ()) (Power.linear 2.) g

let phys_of_graph g =
  Physics.make (Params.make ~noise:1e-9 ()) (Power.linear 2.) g

(* One single-hop flow per link at equal rates, as the benches use. *)
let uniform_source g ~lambda =
  let m = Graph.link_count g in
  let per = lambda /. float_of_int m in
  Driver.Stochastic
    (Stochastic.make (List.init m (fun i -> [ (Path.of_links g [ i ], per) ])))

let first_feasible ?(algorithm = Delay_select.make ~c:4. ()) ~measure () =
  let rec go = function
    | [] -> Alcotest.fail "no configurable rate for the sparse-path fixture"
    | lambda :: rest -> (
      match
        Protocol.configure ~epsilon:0.5 ~algorithm ~measure ~lambda
          ~max_hops:1 ()
      with
      | config -> (config, lambda)
      | exception Invalid_argument _ -> go rest)
  in
  go [ 0.08; 0.04; 0.02; 0.01; 0.005 ]

(* ------------------------------- ε = 0 byte-identity, per topology *)

(* Dense measure vs the tiled one at ε = 0: same frame sizing, then
   a full traced run must agree byte for byte — reports, trajectories
   and every telemetry line. Exercised per topology family since tile
   occupancy (and hence slab layout) differs across them. *)
let check_zero_eps_identity name phys =
  let dense = Sinr_measure.linear_power phys in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon:0. phys in
  let sparse = Tiled.as_measure tiled in
  Alcotest.(check (float 0.)) (name ^ ": ε=0 error bound") 0.
    (Measure.error_bound sparse);
  let g = Physics.graph phys in
  let cfg_d, lambda = first_feasible ~measure:dense () in
  let cfg_s, _ = first_feasible ~measure:sparse () in
  Alcotest.(check int) (name ^ ": frame") cfg_d.Protocol.frame
    cfg_s.Protocol.frame;
  Alcotest.(check int) (name ^ ": phase1 budget") cfg_d.Protocol.phase1_budget
    cfg_s.Protocol.phase1_budget;
  Alcotest.(check int) (name ^ ": cleanup budget")
    cfg_d.Protocol.cleanup_budget cfg_s.Protocol.cleanup_budget;
  let run config =
    let recorder = Memory_sink.create () in
    let telemetry = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let r =
      Driver.run_traced ~telemetry ~metrics_every:2 ~config
        ~oracle:(Oracle.Sinr phys) ~source:(uniform_source g ~lambda)
        ~frames:4 ~rng:(Rng.create ~seed:23 ()) ()
    in
    (r, recorder)
  in
  let rd, md = run cfg_d in
  let rs, ms = run cfg_s in
  Alcotest.(check int) (name ^ ": injected") rd.Protocol.injected
    rs.Protocol.injected;
  Alcotest.(check int) (name ^ ": delivered") rd.Protocol.delivered
    rs.Protocol.delivered;
  Alcotest.(check bool) (name ^ ": trajectory") true
    (Timeseries.to_array rd.Protocol.in_system
    = Timeseries.to_array rs.Protocol.in_system);
  Alcotest.(check bool) (name ^ ": potential bits") true
    (Array.map bits (Timeseries.to_array rd.Protocol.failed_interference)
    = Array.map bits (Timeseries.to_array rs.Protocol.failed_interference));
  Alcotest.(check (list string))
    (name ^ ": telemetry byte-identical")
    (Memory_sink.event_lines md) (Memory_sink.event_lines ms);
  Alcotest.(check bool) (name ^ ": snapshots byte-identical") true
    (Memory_sink.snapshots md = Memory_sink.snapshots ms)

let test_zero_eps_goldens () =
  check_zero_eps_identity "cloud" (cloud_phys ~links:24 7);
  check_zero_eps_identity "grid"
    (phys_of_graph (Topology.grid ~rows:4 ~cols:4 ~spacing:10.));
  check_zero_eps_identity "line"
    (phys_of_graph (Topology.line ~nodes:10 ~spacing:10.))

(* -------------------------- ε > 0 parity within the recorded bound *)

(* Same config except for the measure, under an algorithm that never
   consults the measure mid-run (oneshot — the physics oracle decides
   transmissions): the sparse run must reproduce every packet-level
   observable, and the failed-buffer potential may only sag below dense
   by at most error_bound · max failed load, frame by frame. Verdicts
   then agree by construction. (Algorithms that DO size windows from
   the measure, like delay-select, diverge discretely at ε > 0; their
   measure-level agreement is pinned in test_tiled.) *)
let prop_sparse_run_parity =
  QCheck.Test.make ~count:40
    ~name:"full run sparse-vs-dense: observables equal, potential in bound"
    QCheck.(pair small_nat (float_range 0.05 0.5))
    (fun (pick, epsilon) ->
      let links = 10 + (pick mod 16) in
      let phys = cloud_phys ~links (700 + pick) in
      let g = Physics.graph phys in
      let dense = Sinr_measure.linear_power phys in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
      let sparse = Tiled.as_measure tiled in
      let cfg_d, lambda =
        first_feasible ~algorithm:Dps_static.Oneshot.algorithm ~measure:dense
          ()
      in
      let cfg_s = { cfg_d with Protocol.measure = sparse } in
      let run config =
        Driver.run ~config ~oracle:(Oracle.Sinr phys)
          ~source:(uniform_source g ~lambda) ~frames:4
          ~rng:(Rng.create ~seed:(800 + pick) ())
      in
      let rd = run cfg_d and rs = run cfg_s in
      let pot_d = Timeseries.to_array rd.Protocol.failed_interference in
      let pot_s = Timeseries.to_array rs.Protocol.failed_interference in
      let queue_d = Timeseries.to_array rd.Protocol.failed_queue in
      let bound = Measure.error_bound sparse in
      let pot_ok = ref (Array.length pot_d = Array.length pot_s) in
      if !pot_ok then
        Array.iteri
          (fun i d ->
            let gap = d -. pot_s.(i) in
            (* max failed load <= total failed packets in the system *)
            if gap < -.tolerance || gap > (bound *. queue_d.(i)) +. tolerance
            then pot_ok := false)
          pot_d;
      rd.Protocol.injected = rs.Protocol.injected
      && rd.Protocol.delivered = rs.Protocol.delivered
      && rd.Protocol.max_queue = rs.Protocol.max_queue
      && Timeseries.to_array rd.Protocol.in_system
         = Timeseries.to_array rs.Protocol.in_system
      && Timeseries.to_array rd.Protocol.failed_queue
         = Timeseries.to_array rs.Protocol.failed_queue
      && Stability.assess rd.Protocol.in_system
         = Stability.assess rs.Protocol.in_system
      && !pot_ok)

(* ----------------------------- parallel rescan is byte-identical *)

(* par_threshold 1 forces the chunked path for every stale rescan; the
   interference value (and through it the protocol's argmax-dependent
   behaviour) must be bit-equal to the sequential tracker after every
   operation, ties included. *)
let prop_rescan_par_bit_identical =
  QCheck.Test.make ~count:80
    ~name:"Load_tracker parallel rescan ≡ sequential (bits, every op)"
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 60)
           (triple small_nat (int_range 0 2) (float_range (-1.) 2.))))
    (fun (pick, ops) ->
      let links = 6 + (pick mod 20) in
      let phys = cloud_phys ~links (900 + pick) in
      let dense = Sinr_measure.linear_power phys in
      let seq = Load_tracker.create dense in
      let par = Load_tracker.create ~jobs:4 ~par_threshold:1 dense in
      List.for_all
        (fun (link, kind, c) ->
          let e = link mod links in
          (match kind with
          | 0 ->
            Load_tracker.add seq e;
            Load_tracker.add par e
          | 1 ->
            Load_tracker.remove seq e;
            Load_tracker.remove par e
          | _ ->
            Load_tracker.add_scaled seq e c;
            Load_tracker.add_scaled par e c);
          bits (Load_tracker.interference seq)
          = bits (Load_tracker.interference par))
        ops)

(* Protocol level: a traced sparse run with jobs=4 must reproduce the
   jobs=1 run byte for byte — report, trajectories and telemetry. *)
let test_protocol_jobs_identity () =
  let phys = cloud_phys ~links:24 31 in
  let g = Physics.graph phys in
  let sparse =
    Tiled.as_measure (Sinr_measure.linear_power_tiled ~epsilon:0.1 phys)
  in
  let run jobs =
    let config, lambda = first_feasible ~measure:sparse () in
    let recorder = Memory_sink.create () in
    let telemetry = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let r =
      Driver.run_traced ~jobs ~telemetry ~metrics_every:2 ~config
        ~oracle:(Oracle.Sinr phys) ~source:(uniform_source g ~lambda)
        ~frames:4 ~rng:(Rng.create ~seed:37 ()) ()
    in
    (r, recorder)
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  Alcotest.(check int) "injected" r1.Protocol.injected r4.Protocol.injected;
  Alcotest.(check int) "delivered" r1.Protocol.delivered
    r4.Protocol.delivered;
  Alcotest.(check bool) "trajectory" true
    (Timeseries.to_array r1.Protocol.in_system
    = Timeseries.to_array r4.Protocol.in_system);
  Alcotest.(check bool) "potential bits" true
    (Array.map bits (Timeseries.to_array r1.Protocol.failed_interference)
    = Array.map bits (Timeseries.to_array r4.Protocol.failed_interference));
  Alcotest.(check (list string))
    "telemetry byte-identical" (Memory_sink.event_lines m1)
    (Memory_sink.event_lines m4);
  Alcotest.(check bool) "snapshots byte-identical" true
    (Memory_sink.snapshots m1 = Memory_sink.snapshots m4)

(* ------------------------------ a sparse scenario stays sparse *)

let test_scenario_never_densifies () =
  let spec =
    Scenario.make ~sparse:0.1 ~model:"sinr-linear" ~topology:"grid:6x6"
      ~rate:0.04 ()
  in
  let built = Scenario.build spec in
  (match built.Scenario.tiled with
  | None -> Alcotest.fail "sparse build must expose the tiled engine"
  | Some tiled ->
    Alcotest.(check bool) "measure is the one the tiled engine packed" true
      (built.Scenario.measure == Tiled.as_measure tiled);
    Alcotest.(check (float 0.))
      "error bound is the engine's max row bound"
      (Tiled.max_row_bound tiled)
      (Measure.error_bound built.Scenario.measure);
    Alcotest.(check int) "sizes agree" (Tiled.size tiled)
      (Measure.size built.Scenario.measure));
  (* The config the protocol will run on carries the same measure — the
     whole hot path shares the one un-densified measure identity. *)
  Alcotest.(check bool) "config shares the sparse measure" true
    (built.Scenario.config.Protocol.measure == built.Scenario.measure);
  let dense_spec =
    Scenario.make ~model:"sinr-linear" ~topology:"grid:6x6" ~rate:0.04 ()
  in
  let dense_built = Scenario.build dense_spec in
  Alcotest.(check bool) "a dense spec builds no tiled engine" true
    (dense_built.Scenario.tiled = None);
  Alcotest.(check (float 0.)) "a dense spec is exact" 0.
    (Measure.error_bound dense_built.Scenario.measure)

(* ------------------------------------ the sparse accessors' oracles *)

(* Entries of row [e] and of column [e] in the order the measure hands
   them out, weights as bits. *)
let row_entries w e =
  let acc = ref [] in
  Measure.iter_row w e (fun e' x -> acc := (e', bits x) :: !acc);
  List.rev !acc

let column_entries w e' =
  let { Measure.rows; weights; lo; hi } = Measure.column w e' in
  List.init (hi - lo) (fun i -> (rows.(lo + i), bits weights.(lo + i)))

(* At ε = 0 the tiled measure must equal the dense matrix built by
   [Measure.of_function] through every accessor, bit for bit. *)
let check_zero_eps_accessors name phys =
  let dense = Sinr_measure.linear_power phys in
  let sparse =
    Tiled.as_measure (Sinr_measure.linear_power_tiled ~epsilon:0. phys)
  in
  let m = Measure.size dense in
  let fail what e =
    Alcotest.failf "%s: %s %d differs from linear_power" name what e
  in
  Alcotest.(check int) (name ^ ": size") m (Measure.size sparse);
  Alcotest.(check int) (name ^ ": nnz") (Measure.nnz dense) (Measure.nnz sparse);
  Alcotest.(check int64) (name ^ ": max_row_sum bits")
    (bits (Measure.max_row_sum dense))
    (bits (Measure.max_row_sum sparse));
  let rng = Rng.create ~seed:43 () in
  let load = Array.init m (fun _ -> float_of_int (Rng.int rng 6)) in
  Alcotest.(check int64) (name ^ ": interference bits")
    (bits (Measure.interference dense load))
    (bits (Measure.interference sparse load));
  for e = 0 to m - 1 do
    if Measure.row_error sparse e <> 0. then fail "row_error" e;
    if Measure.row_nnz dense e <> Measure.row_nnz sparse e then fail "row_nnz" e;
    if row_entries dense e <> row_entries sparse e then fail "row" e;
    if column_entries dense e <> column_entries sparse e then fail "column" e;
    if bits (Measure.interference_at dense load e)
       <> bits (Measure.interference_at sparse load e)
    then fail "interference_at" e;
    for e' = 0 to m - 1 do
      if bits (Measure.weight dense e e') <> bits (Measure.weight sparse e e')
      then fail "weight row" e
    done
  done

let test_zero_eps_accessors () =
  check_zero_eps_accessors "grid"
    (phys_of_graph (Topology.grid ~rows:4 ~cols:4 ~spacing:10.));
  check_zero_eps_accessors "line"
    (phys_of_graph (Topology.line ~nodes:10 ~spacing:10.));
  check_zero_eps_accessors "random"
    (phys_of_graph
       (Topology.random_geometric (Rng.create ~seed:3 ()) ~nodes:14 ~side:60.
          ~radius:18.));
  check_zero_eps_accessors "cloud" (cloud_phys ~links:40 7)

(* At ε > 0 entries are dropped, so there is no dense matrix to compare
   with; each column the window builds must then be exactly the stored
   rows naming it, rows ascending. The plane is wide enough that a
   window leaves out most rows. *)
let test_window_columns_transpose () =
  let tiled =
    Sinr_measure.linear_power_tiled ~epsilon:0.2 (cloud_phys ~links:300 41)
  in
  Alcotest.(check bool) "window narrower than the plane" true
    (2 * (Tiled.near_radius tiled + 1)
    < Dps_geometry.Tiling.nx (Tiled.tiling tiled));
  let w = Tiled.as_measure tiled in
  let m = Measure.size w in
  let expect = Array.make m [] in
  for e = m - 1 downto 0 do
    List.iter
      (fun (e', x) -> expect.(e') <- (e, x) :: expect.(e'))
      (row_entries w e)
  done;
  for e' = 0 to m - 1 do
    if column_entries w e' <> expect.(e') then
      Alcotest.failf "column %d is not the transpose of the rows" e'
  done

let () =
  Alcotest.run "sparse_path"
    [ ( "unit",
        [ Alcotest.test_case "ε=0 runs byte-identical per topology" `Quick
            test_zero_eps_goldens;
          Alcotest.test_case "jobs=1 ≡ jobs=4 through the protocol" `Quick
            test_protocol_jobs_identity;
          Alcotest.test_case "sparse scenario never densifies" `Quick
            test_scenario_never_densifies;
          Alcotest.test_case "ε=0 accessors ≡ linear_power, bit for bit" `Quick
            test_zero_eps_accessors;
          Alcotest.test_case "ε=0.2 window columns ≡ row transpose" `Quick
            test_window_columns_transpose ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sparse_run_parity; prop_rescan_par_bit_identical ] ) ]
