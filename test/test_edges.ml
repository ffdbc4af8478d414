(* Edge cases and small-surface behaviours not covered by the main suites:
   printers, degenerate inputs, boundary parameters. *)

module Rng = Dps_prelude.Rng
module Stats = Dps_prelude.Stats
module Histogram = Dps_prelude.Histogram
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Topology = Dps_network.Topology
module Routing = Dps_network.Routing
module Measure = Dps_interference.Measure
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Trace = Dps_sim.Trace
module Arena = Dps_sim.Packet_arena
module Lists = Reference.Lists
module Transform = Dps_core.Transform
module Contention = Dps_static.Contention
module Algorithm = Dps_static.Algorithm
module Request = Dps_static.Request

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------- printers *)

let test_stats_pp () =
  let s = Stats.of_array [| 1.; 2.; 3. |] in
  let text = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "mentions mean" true (contains text "mean=2");
  let empty = Format.asprintf "%a" Stats.pp (Stats.create ()) in
  Alcotest.(check string) "empty stats" "n=0" empty

let test_histogram_pp () =
  let h = Histogram.create () in
  let rng = Rng.create () in
  List.iter (fun x -> Histogram.add h rng x) [ 1.; 2.; 3.; 4. ];
  let text = Format.asprintf "%a" Histogram.pp h in
  Alcotest.(check bool) "mentions p50" true (contains text "p50=");
  Alcotest.(check string) "empty histogram" "n=0"
    (Format.asprintf "%a" Histogram.pp (Histogram.create ()))

let test_point_pp () =
  Alcotest.(check string) "point" "(1.5, -2)"
    (Format.asprintf "%a" Point.pp (Point.make 1.5 (-2.)))

let test_link_pp () =
  Alcotest.(check string) "link" "e3:1->2"
    (Format.asprintf "%a" Link.pp (Link.make ~id:3 ~src:1 ~dst:2))

let test_path_pp () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let r = Routing.make g in
  let p = Option.get (Routing.path r ~src:0 ~dst:2) in
  let text = Format.asprintf "%a" Path.pp p in
  Alcotest.(check bool) "bracketed" true
    (String.length text > 2 && text.[0] = '[')

let test_trace_pp () =
  let ch = Channel.create ~oracle:Oracle.Wireline ~m:2 () in
  ignore (Lists.step ch [ 0 ]);
  let text = Format.asprintf "%a" Trace.pp (Channel.trace ch) in
  Alcotest.(check bool) "mentions slots" true (contains text "slots=1")

let test_params_pp () =
  let text = Format.asprintf "%a" Params.pp (Params.make ~alpha:2.5 ()) in
  Alcotest.(check bool) "mentions alpha" true (contains text "alpha=2.5")

let test_oracle_names () =
  let cg = Conflict_graph.create ~links:2 ~conflicts:[] in
  Alcotest.(check string) "wireline" "wireline" (Oracle.name Oracle.Wireline);
  Alcotest.(check string) "mac" "multiple-access" (Oracle.name Oracle.Mac);
  Alcotest.(check string) "conflict" "conflict-graph"
    (Oracle.name (Oracle.Conflict cg));
  Alcotest.(check string) "lossy composes" "lossy(multiple-access, 0.25)"
    (Oracle.name (Oracle.Lossy (Oracle.Mac, 0.25)))

(* ------------------------------------------------------------ degenerate *)

let test_measure_weight_lookup_edges () =
  let w = Measure.of_rows [| [ (2, 0.5); (1, 0.25) ]; []; [] |] in
  (* Binary search over the sorted row: first, middle, last, absent. *)
  Alcotest.(check (float 1e-12)) "diagonal" 1. (Measure.weight w 0 0);
  Alcotest.(check (float 1e-12)) "middle" 0.25 (Measure.weight w 0 1);
  Alcotest.(check (float 1e-12)) "last" 0.5 (Measure.weight w 0 2);
  Alcotest.(check (float 1e-12)) "absent" 0. (Measure.weight w 1 2);
  Alcotest.(check int) "row includes diagonal" 3 (Measure.row_nnz w 0)

let test_measure_single_link () =
  let w = Measure.identity 1 in
  Alcotest.(check (float 1e-12)) "I of unit load" 5.
    (Measure.interference w [| 5. |])

let test_routing_isolated_node () =
  (* A node with no links at all. *)
  let positions = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let g =
    Graph.create ~positions ~links:[ Link.make ~id:0 ~src:0 ~dst:1 ]
  in
  let r = Routing.make g in
  Alcotest.(check bool) "isolated unreachable" true
    (Routing.path r ~src:0 ~dst:2 = None);
  Alcotest.(check bool) "from isolated" true (Routing.path r ~src:2 ~dst:0 = None)

let test_conflict_graph_no_conflicts () =
  let cg = Conflict_graph.create ~links:3 ~conflicts:[] in
  Alcotest.(check bool) "everything independent" true
    (Conflict_graph.independent cg [ 0; 1; 2 ]);
  let order = Conflict_graph.degeneracy_order cg in
  let measure = Conflict_graph.to_measure cg ~order in
  Alcotest.(check (float 1e-12)) "measure is identity-like" 2.
    (Measure.interference measure [| 2.; 1.; 1. |])

let test_channel_mixed_duplicates () =
  (* Duplicates and singletons in one slot under wireline. *)
  let ch = Channel.create ~oracle:Oracle.Wireline ~m:4 () in
  let succ = List.sort compare (Lists.step ch [ 1; 2; 1; 3; 3; 3 ]) in
  Alcotest.(check (list int)) "only the singleton" [ 2 ] succ;
  (* All six attempts were still counted. *)
  Alcotest.(check int) "attempts" 6 (Trace.attempts (Channel.trace ch))

let test_packet_single_hop () =
  let g = Topology.line ~nodes:2 ~spacing:1. in
  let a = Arena.create () in
  let p = Arena.alloc a ~id:0 ~path:(Path.of_links g [ 0 ]) ~injected_slot:5 in
  Alcotest.(check int) "one hop" 1 (Arena.remaining_hops a p);
  Arena.advance a p ~slot:9;
  Alcotest.(check bool) "done" true (Arena.delivered a p);
  Alcotest.(check int) "latency 4" 4 (Arena.latency a p)

let test_physics_beta_boundary () =
  (* Shared-sender pair: SINR is exactly beta; the closed comparison admits
     it (the model's boundary convention). *)
  let positions =
    [| Point.make 0. 0.; Point.make 1. 0.; Point.make 0. 1. |]
  in
  let g =
    Graph.create ~positions
      ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:0 ~dst:2 ]
  in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  Alcotest.(check (float 1e-9)) "sinr exactly beta" 1.
    (Lists.sinr phys ~active:[ 0; 1 ] 0);
  Alcotest.(check bool) "boundary passes (closed inequality)" true
    (Lists.feasible phys ~active:[ 0; 1 ] 0)

(* --------------------------------------------------------- paper consts *)

let test_transform_with_paper_constants () =
  (* chi = 6(ln m + 9): the literal Algorithm 1 parameters still produce a
     correct (if slow) schedule on a small instance. *)
  let m = 3 in
  let rng = Rng.create ~seed:95 () in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let requests = Array.init 60 (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo =
    Transform.apply ~chi_factor:6. ~chi_offset:9. ~phi:1. (Contention.make ())
  in
  let outcome =
    Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m) ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome)

let test_power_assignment_names () =
  Alcotest.(check string) "uniform" "uniform" (Power.name (Power.uniform 1.));
  Alcotest.(check string) "linear" "linear" (Power.name (Power.linear 1.));
  Alcotest.(check string) "sqrt" "square-root" (Power.name (Power.square_root 1.));
  Alcotest.(check string) "custom" "mine"
    (Power.name (Power.custom ~name:"mine" (fun ~length:_ ~alpha:_ -> 1.)))

(* --------------------------------------------------------- determinism *)

let test_driver_deterministic_with_lossy_oracle () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let m = Graph.link_count g in
  let r = Routing.make g in
  let path = Option.get (Routing.path r ~src:0 ~dst:3) in
  let measure = Measure.identity m in
  let run () =
    let rng = Rng.create ~seed:96 () in
    let config =
      Dps_core.Protocol.configure ~algorithm:Dps_static.Oneshot.algorithm
        ~measure ~lambda:0.2 ~max_hops:4 ()
    in
    let inj = Dps_injection.Stochastic.make [ [ (path, 0.1) ] ] in
    let rep =
      Dps_core.Driver.run ~config
        ~oracle:(Oracle.Lossy (Oracle.Wireline, 0.2))
        ~source:(Dps_core.Driver.Stochastic inj) ~frames:25 ~rng
    in
    (rep.Dps_core.Protocol.injected, rep.Dps_core.Protocol.delivered)
  in
  Alcotest.(check (pair int int)) "lossy runs reproducible" (run ()) (run ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "edges"
    [ ( "printers",
        [ quick "stats pp" test_stats_pp;
          quick "histogram pp" test_histogram_pp;
          quick "point pp" test_point_pp;
          quick "link pp" test_link_pp;
          quick "path pp" test_path_pp;
          quick "trace pp" test_trace_pp;
          quick "params pp" test_params_pp;
          quick "oracle names" test_oracle_names ] );
      ( "degenerate",
        [ quick "measure weight lookup" test_measure_weight_lookup_edges;
          quick "single-link measure" test_measure_single_link;
          quick "isolated node routing" test_routing_isolated_node;
          quick "conflict-free graph" test_conflict_graph_no_conflicts;
          quick "mixed duplicate attempts" test_channel_mixed_duplicates;
          quick "single-hop packet" test_packet_single_hop;
          quick "beta boundary" test_physics_beta_boundary ] );
      ( "constants",
        [ quick "transform with paper constants" test_transform_with_paper_constants;
          quick "power assignment names" test_power_assignment_names ] );
      ( "determinism",
        [ quick "lossy driver reproducible" test_driver_deterministic_with_lossy_oracle ] ) ]
