(* Unit and property tests for the network substrate: links, graphs, paths,
   routing, topologies. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology

let triangle () =
  (* 0 -> 1 -> 2 -> 0 plus 0 -> 2. *)
  let positions = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 0. 1. |] in
  Graph.create ~positions
    ~links:
      [ Link.make ~id:0 ~src:0 ~dst:1;
        Link.make ~id:1 ~src:1 ~dst:2;
        Link.make ~id:2 ~src:2 ~dst:0;
        Link.make ~id:3 ~src:0 ~dst:2 ]

(* ----------------------------------------------------------------- Link *)

let test_link_make () =
  let l = Link.make ~id:3 ~src:1 ~dst:2 in
  Alcotest.(check int) "id" 3 l.Link.id;
  Alcotest.(check bool) "equal" true (Link.equal l (Link.make ~id:3 ~src:1 ~dst:2));
  Alcotest.(check bool) "not equal" false
    (Link.equal l (Link.make ~id:3 ~src:2 ~dst:1))

(* ---------------------------------------------------------------- Graph *)

let test_graph_counts () =
  let g = triangle () in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "links" 4 (Graph.link_count g)

let test_graph_adjacency () =
  let g = triangle () in
  Alcotest.(check (list int)) "out of 0" [ 0; 3 ] (Graph.out_links g 0);
  Alcotest.(check (list int)) "in of 2" [ 1; 3 ] (Graph.in_links g 2);
  Alcotest.(check (list int)) "out of 2" [ 2 ] (Graph.out_links g 2)

let test_graph_find_link () =
  let g = triangle () in
  Alcotest.(check (option int)) "0->1" (Some 0) (Graph.find_link g ~src:0 ~dst:1);
  Alcotest.(check (option int)) "1->0 missing" None (Graph.find_link g ~src:1 ~dst:0)

let test_graph_link_length () =
  let g = triangle () in
  Alcotest.(check (float 1e-9)) "unit link" 1. (Graph.link_length g 0);
  Alcotest.(check (float 1e-9)) "diagonal" (sqrt 2.) (Graph.link_length g 1)

let test_graph_bad_id_rejected () =
  let positions = [| Point.make 0. 0.; Point.make 1. 0. |] in
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Graph.create: link id must equal its index") (fun () ->
      ignore (Graph.create ~positions ~links:[ Link.make ~id:1 ~src:0 ~dst:1 ]))

let test_graph_bad_endpoint_rejected () =
  let positions = [| Point.make 0. 0.; Point.make 1. 0. |] in
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Graph.create: link endpoint out of range") (fun () ->
      ignore (Graph.create ~positions ~links:[ Link.make ~id:0 ~src:0 ~dst:5 ]))

(* ----------------------------------------------------------------- Path *)

let test_path_valid () =
  let g = triangle () in
  let p = Path.of_links g [ 0; 1; 2 ] in
  Alcotest.(check int) "length" 3 (Path.length p);
  Alcotest.(check int) "source" 0 (Path.source g p);
  Alcotest.(check int) "target" 0 (Path.target g p);
  Alcotest.(check int) "hop 1" 1 (Path.hop p 1);
  Alcotest.(check bool) "mem" true (Path.mem p 2);
  Alcotest.(check bool) "not mem" false (Path.mem p 3)

let test_path_disconnected_rejected () =
  let g = triangle () in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Path.of_links: disconnected hops") (fun () ->
      ignore (Path.of_links g [ 0; 2 ]))

let test_path_empty_rejected () =
  let g = triangle () in
  Alcotest.check_raises "empty" (Invalid_argument "Path.of_links: empty path")
    (fun () -> ignore (Path.of_links g []))

let test_path_revisit_allowed () =
  (* Paths may, in principle, visit nodes multiple times (Section 2). *)
  let g = triangle () in
  let p = Path.of_links g [ 0; 1; 2; 0; 1; 2 ] in
  Alcotest.(check int) "length" 6 (Path.length p)

(* -------------------------------------------------------------- Routing *)

let test_routing_line () =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let r = Routing.make g in
  Alcotest.(check (option int)) "0->4 distance" (Some 4)
    (Routing.distance r ~src:0 ~dst:4);
  match Routing.path r ~src:0 ~dst:4 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
    Alcotest.(check int) "hops" 4 (Path.length p);
    Alcotest.(check int) "source" 0 (Path.source g p);
    Alcotest.(check int) "target" 4 (Path.target g p)

let test_routing_unreachable () =
  (* Only an uplink: 1 -> 0; node 0 cannot reach node 1. *)
  let positions = [| Point.make 0. 0.; Point.make 1. 0. |] in
  let g = Graph.create ~positions ~links:[ Link.make ~id:0 ~src:1 ~dst:0 ] in
  let r = Routing.make g in
  Alcotest.(check (option int)) "unreachable" None (Routing.distance r ~src:0 ~dst:1);
  Alcotest.(check bool) "no path" true (Routing.path r ~src:0 ~dst:1 = None)

let test_routing_self () =
  let g = Topology.line ~nodes:3 ~spacing:1. in
  let r = Routing.make g in
  Alcotest.(check bool) "no self path" true (Routing.path r ~src:1 ~dst:1 = None)

let test_routing_diameter () =
  let g = Topology.line ~nodes:6 ~spacing:1. in
  let r = Routing.make g in
  Alcotest.(check int) "line diameter" 5 (Routing.diameter r)

let test_routing_grid_shortest () =
  let g = Topology.grid ~rows:3 ~cols:3 ~spacing:1. in
  let r = Routing.make g in
  (* Corner to corner: Manhattan distance 4. *)
  Alcotest.(check (option int)) "corner distance" (Some 4)
    (Routing.distance r ~src:0 ~dst:8)

(* ------------------------------------------------------------- Topology *)

let test_topology_line () =
  let g = Topology.line ~nodes:4 ~spacing:2. in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "links" 6 (Graph.link_count g)

let test_topology_grid () =
  let g = Topology.grid ~rows:3 ~cols:4 ~spacing:1. in
  Alcotest.(check int) "nodes" 12 (Graph.node_count g);
  (* 2 * (rows*(cols-1) + cols*(rows-1)) = 2 * (9 + 8). *)
  Alcotest.(check int) "links" 34 (Graph.link_count g)

let test_topology_star () =
  let g = Topology.star ~leaves:5 ~radius:3. in
  Alcotest.(check int) "nodes" 6 (Graph.node_count g);
  Alcotest.(check int) "links" 10 (Graph.link_count g);
  for id = 0 to 9 do
    Alcotest.(check (float 1e-9)) "radius" 3. (Graph.link_length g id)
  done

let test_topology_mac () =
  let g = Topology.mac_channel ~stations:7 in
  Alcotest.(check int) "links = stations" 7 (Graph.link_count g);
  Array.iter
    (fun (l : Link.t) -> Alcotest.(check int) "all uplinks" 0 l.Link.dst)
    (Graph.links g)

let test_topology_random_geometric () =
  let rng = Rng.create ~seed:4 () in
  let g = Topology.random_geometric rng ~nodes:30 ~side:10. ~radius:3. in
  Alcotest.(check int) "nodes" 30 (Graph.node_count g);
  Array.iter
    (fun (l : Link.t) ->
      Alcotest.(check bool) "length within radius" true
        (Graph.link_length g l.Link.id <= 3.))
    (Graph.links g)

let test_topology_figure_one () =
  let m = 16 in
  let g = Topology.figure_one ~m in
  Alcotest.(check int) "links" m (Graph.link_count g);
  (* Short links have length 1, the long link has length 10·m². *)
  for id = 0 to m - 2 do
    Alcotest.(check (float 1e-6)) "short length" 1. (Graph.link_length g id)
  done;
  Alcotest.(check (float 1e-3)) "long length"
    (10. *. float_of_int (m * m))
    (Graph.link_length g (m - 1))

let test_topology_figure_one_separation () =
  let m = 16 in
  let g = Topology.figure_one ~m in
  (* Distinct short senders are at least a few units apart. *)
  let sender id = Graph.position g (Graph.link g id).Link.src in
  for a = 0 to m - 2 do
    for b = a + 1 to m - 2 do
      Alcotest.(check bool) "senders separated" true
        (Point.distance (sender a) (sender b) > 2.)
    done
  done

(* ------------------------------------------------------------ property *)

let prop_routing_path_is_shortest =
  QCheck.Test.make ~count:50 ~name:"BFS path length equals reported distance"
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (rows, cols) ->
      let g = Topology.grid ~rows ~cols ~spacing:1. in
      let r = Routing.make g in
      let n = Graph.node_count g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match (Routing.path r ~src ~dst, Routing.distance r ~src ~dst) with
          | Some p, Some d ->
            if Path.length p <> d then ok := false;
            if Path.source g p <> src || Path.target g p <> dst then ok := false
          | None, None -> ()
          | _ -> ok := false
        done
      done;
      !ok)

let prop_grid_distance_is_manhattan =
  QCheck.Test.make ~count:50 ~name:"grid shortest paths are Manhattan"
    QCheck.(triple (int_range 2 5) (int_range 2 5) (pair small_nat small_nat))
    (fun (rows, cols, (a, b)) ->
      let g = Topology.grid ~rows ~cols ~spacing:1. in
      let r = Routing.make g in
      let n = rows * cols in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let manhattan =
          abs ((src / cols) - (dst / cols)) + abs ((src mod cols) - (dst mod cols))
        in
        Routing.distance r ~src ~dst = Some manhattan
      end)

let prop_random_geometric_links_bidirectional =
  QCheck.Test.make ~count:30 ~name:"random geometric graphs are symmetric"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let g = Topology.random_geometric rng ~nodes:15 ~side:8. ~radius:3. in
      Array.for_all
        (fun (l : Link.t) ->
          Option.is_some (Graph.find_link g ~src:l.Link.dst ~dst:l.Link.src))
        (Graph.links g))

let pairs g =
  let n = Graph.node_count g in
  List.concat (List.init n (fun src -> List.init n (fun dst -> (src, dst))))

let answer r (src, dst) =
  (Option.map Path.hops (Routing.path r ~src ~dst), Routing.distance r ~src ~dst)

(* Early-stopping searches against the all-pairs BFS table
   (test/reference.ml), on small graphs of every family: every
   (src, dst), unreachable pairs and src = dst included. *)
let prop_routing_matches_table =
  QCheck.Test.make ~count:300 ~name:"routing equals the all-pairs BFS table"
    Reference.arb_graph
    (fun (family, seed) ->
      let g = Reference.graph ~family ~seed in
      let r = Routing.make g and table = Reference.Routing.make g in
      Routing.diameter r = Reference.Routing.diameter table
      && List.for_all
           (fun (src, dst) ->
             answer r (src, dst)
             = ( Option.map Path.hops (Reference.Routing.path table ~src ~dst),
                 Reference.Routing.distance table ~src ~dst ))
           (pairs g))

(* One routing value, queried by two domains at once, answers as it
   does on one: each domain searches in its own scratch. The graphs are
   large enough (10,000 to 25,000 queries each) for the domains to
   overlap; one scratch shared by both fails this within a case. *)
let prop_routing_two_domains =
  QCheck.Test.make ~count:5 ~name:"two domains query one routing as one does"
    (QCheck.make
       ~print:(fun (nodes, seed) -> Printf.sprintf "%d nodes, seed %d" nodes seed)
       QCheck.Gen.(pair (int_range 100 160) nat))
    (fun (nodes, seed) ->
      let rng = Rng.create ~seed () in
      let g = Topology.random_geometric rng ~nodes ~side:30. ~radius:7. in
      let r = Routing.make g in
      let all = pairs g in
      Dps_par.Par.map ~chunk:1 ~jobs:2 (answer r) all
      = Dps_par.Par.map ~jobs:1 (answer r) all)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "network"
    [ ("link", [ quick "make and equal" test_link_make ]);
      ( "graph",
        [ quick "counts" test_graph_counts;
          quick "adjacency" test_graph_adjacency;
          quick "find_link" test_graph_find_link;
          quick "link_length" test_graph_link_length;
          quick "bad id rejected" test_graph_bad_id_rejected;
          quick "bad endpoint rejected" test_graph_bad_endpoint_rejected ] );
      ( "path",
        [ quick "valid path" test_path_valid;
          quick "disconnected rejected" test_path_disconnected_rejected;
          quick "empty rejected" test_path_empty_rejected;
          quick "revisits allowed" test_path_revisit_allowed ] );
      ( "routing",
        [ quick "line" test_routing_line;
          quick "unreachable" test_routing_unreachable;
          quick "self" test_routing_self;
          quick "diameter" test_routing_diameter;
          quick "grid shortest" test_routing_grid_shortest ] );
      ( "topology",
        [ quick "line" test_topology_line;
          quick "grid" test_topology_grid;
          quick "star" test_topology_star;
          quick "mac channel" test_topology_mac;
          quick "random geometric" test_topology_random_geometric;
          quick "figure one geometry" test_topology_figure_one;
          quick "figure one separation" test_topology_figure_one_separation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_routing_path_is_shortest;
            prop_grid_distance_is_manhattan;
            prop_random_geometric_links_bidirectional;
            prop_routing_matches_table;
            prop_routing_two_domains ] ) ]
