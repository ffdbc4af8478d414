(* Unit and property tests for the interference measure and conflict
   graphs — the paper's central abstraction (Sections 2 and 7.2). *)

module Rng = Dps_prelude.Rng
module Measure = Dps_interference.Measure
module Load = Dps_interference.Load
module Conflict_graph = Dps_interference.Conflict_graph
module Topology = Dps_network.Topology
module Graph = Dps_network.Graph
module Path = Dps_network.Path

let check_float = Alcotest.(check (float 1e-9))

(* -------------------------------------------------------------- Measure *)

let test_identity_measure () =
  let w = Measure.identity 4 in
  Alcotest.(check int) "size" 4 (Measure.size w);
  check_float "diagonal" 1. (Measure.weight w 2 2);
  check_float "off-diagonal" 0. (Measure.weight w 0 1);
  (* Identity measure = congestion. *)
  check_float "congestion" 5. (Measure.interference w [| 2.; 5.; 0.; 1. |])

let test_complete_measure () =
  let w = Measure.complete 3 in
  check_float "all ones" 1. (Measure.weight w 0 2);
  (* Complete measure = total packet count. *)
  check_float "total" 8. (Measure.interference w [| 2.; 5.; 1. |])

let test_of_function_clamps () =
  let w = Measure.of_function ~m:3 (fun e e' -> if e < e' then 2.5 else -1.) in
  check_float "clamped high" 1. (Measure.weight w 0 1);
  check_float "clamped low (dropped)" 0. (Measure.weight w 2 0);
  check_float "diagonal forced" 1. (Measure.weight w 2 2)

(* A NaN entry fails as it does in [of_rows] and [Tiled.create]: it
   would otherwise clamp to NaN, fail [w > 0.] and vanish. *)
let test_of_function_rejects_nan () =
  Alcotest.check_raises "NaN entry"
    (Invalid_argument "Measure.of_function: f returned NaN") (fun () ->
      ignore
        (Measure.of_function ~m:3 (fun e e' ->
             if e = 0 && e' = 1 then Float.nan else 0.5)))

(* [of_csr] takes slabs as they are, so it checks what every accessor
   relies on. *)
let test_of_csr_rejects_bad () =
  let slabs ids ws =
    ( Bigarray.(Array1.of_array int32 c_layout (Array.map Int32.of_int ids)),
      Bigarray.(Array1.of_array float64 c_layout ws) )
  in
  let build ?window ?(row_error = [| 0.; 0. |]) row_ptr ids ws =
    let cols, weights = slabs ids ws in
    ignore (Measure.of_csr ?window ~row_ptr ~cols ~weights ~row_error ())
  in
  let rejects name what f =
    Alcotest.check_raises name (Invalid_argument ("Measure.of_csr: " ^ what)) f
  in
  let w =
    let cols, weights = slabs [| 0; 1; 1 |] [| 1.; 0.5; 1. |] in
    Measure.of_csr ~row_ptr:[| 0; 2; 3 |] ~cols ~weights
      ~row_error:[| 0.25; 0. |] ()
  in
  check_float "entry" 0.5 (Measure.weight w 0 1);
  check_float "error bound" 0.25 (Measure.error_bound w);
  rejects "unsorted ids" "ids not ascending inside [0, m)" (fun () ->
      build [| 0; 2; 3 |] [| 1; 0; 1 |] [| 0.5; 1.; 1. |]);
  rejects "id = m" "ids not ascending inside [0, m)" (fun () ->
      build [| 0; 2; 3 |] [| 0; 2; 1 |] [| 1.; 0.5; 1. |]);
  rejects "NaN weight" "weight outside (0, 1]" (fun () ->
      build [| 0; 2; 3 |] [| 0; 1; 1 |] [| 1.; Float.nan; 1. |]);
  rejects "no diagonal" "diagonal missing or not 1" (fun () ->
      build [| 0; 1; 2 |] [| 1; 1 |] [| 0.5; 1. |]);
  rejects "row past the slab" "row_ptr and slabs disagree" (fun () ->
      build [| 0; 2; 4 |] [| 0; 1; 1 |] [| 1.; 0.5; 1. |]);
  rejects "negative row error" "row_error below 0" (fun () ->
      build ~row_error:[| 0.; -0.1 |] [| 0; 1; 2 |] [| 0; 1 |] [| 1.; 1. |]);
  let one_point =
    Dps_geometry.Tiling.create ~points:[| Dps_geometry.Point.make 0. 0. |] ()
  in
  rejects "window over other links" "window tiles other links" (fun () ->
      build ~window:(one_point, 1) [| 0; 1; 2 |] [| 0; 1 |] [| 1.; 1. |])

let test_of_rows_diagonal () =
  let w = Measure.of_rows [| [ (1, 0.5) ]; [] |] in
  check_float "explicit entry" 0.5 (Measure.weight w 0 1);
  check_float "diagonal present" 1. (Measure.weight w 1 1)

let test_of_rows_rejects_bad () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Measure: link id out of range") (fun () ->
      ignore (Measure.of_rows [| [ (5, 0.5) ] |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Measure: duplicate entry in row") (fun () ->
      ignore (Measure.of_rows [| [ (1, 0.5); (1, 0.2) ]; [] |]));
  Alcotest.check_raises "weight range"
    (Invalid_argument "Measure: weight outside (0, 1]") (fun () ->
      ignore (Measure.of_rows [| [ (1, 1.5) ]; [] |]))

let test_of_rows_error_paths () =
  let out_of_range = Invalid_argument "Measure: link id out of range" in
  let bad_weight = Invalid_argument "Measure: weight outside (0, 1]" in
  Alcotest.check_raises "negative id" out_of_range (fun () ->
      ignore (Measure.of_rows [| [ (-1, 0.5) ]; [] |]));
  Alcotest.check_raises "id = m boundary" out_of_range (fun () ->
      ignore (Measure.of_rows [| []; [ (2, 0.5) ] |]));
  Alcotest.check_raises "zero weight" bad_weight (fun () ->
      ignore (Measure.of_rows [| [ (1, 0.) ]; [] |]));
  Alcotest.check_raises "negative weight" bad_weight (fun () ->
      ignore (Measure.of_rows [| [ (1, -0.25) ]; [] |]));
  Alcotest.check_raises "weight just above 1" bad_weight (fun () ->
      ignore (Measure.of_rows [| [ (1, 1.0000001) ]; [] |]));
  Alcotest.check_raises "duplicate deep in a longer row"
    (Invalid_argument "Measure: duplicate entry in row") (fun () ->
      ignore
        (Measure.of_rows
           [| [ (1, 0.1); (2, 0.2); (3, 0.3); (2, 0.4) ]; []; []; [] |]));
  Alcotest.check_raises "bad entry in a later row" out_of_range (fun () ->
      ignore (Measure.of_rows [| [ (1, 0.5) ]; [ (9, 0.5) ] |]));
  (* NaN compares false against both range bounds; it must still be
     rejected, not silently stored. *)
  Alcotest.check_raises "NaN weight" bad_weight (fun () ->
      ignore (Measure.of_rows [| [ (1, Float.nan) ]; [] |]));
  (* A declared size must match the row count exactly, and an empty row
     array can no longer build a 0-link measure by accident. *)
  Alcotest.check_raises "declared m too large"
    (Invalid_argument "Measure: of_rows got 2 rows for declared size m = 3")
    (fun () -> ignore (Measure.of_rows ~m:3 [| [ (1, 0.5) ]; [] |]));
  Alcotest.check_raises "declared m too small"
    (Invalid_argument "Measure: of_rows got 2 rows for declared size m = 1")
    (fun () -> ignore (Measure.of_rows ~m:1 [| [ (1, 0.5) ]; [] |]));
  Alcotest.check_raises "empty rows"
    (Invalid_argument "Measure: of_rows needs at least one row") (fun () ->
      ignore (Measure.of_rows [||]));
  let w = Measure.of_rows ~m:2 [| [ (1, 0.5) ]; [] |] in
  check_float "matching declared m accepted" 0.5 (Measure.weight w 0 1);
  (* Boundary acceptances. *)
  let w = Measure.of_rows [| [ (1, 1.) ]; [] |] in
  check_float "weight exactly 1 accepted" 1. (Measure.weight w 0 1);
  (* An explicit diagonal entry is forced to 1, not doubled. *)
  let w = Measure.of_rows [| [ (0, 0.5); (1, 0.25) ]; [] |] in
  check_float "diagonal forced to 1" 1. (Measure.weight w 0 0);
  check_float "off-diagonal kept" 0.25 (Measure.weight w 0 1)

let test_interference_at () =
  let w =
    Measure.of_function ~m:3 (fun e e' ->
        if e = 0 && e' > 0 then 0.5 else 0.)
  in
  let load = [| 1.; 2.; 4. |] in
  check_float "row 0" (1. +. 1. +. 2.) (Measure.interference_at w load 0);
  check_float "row 1" 2. (Measure.interference_at w load 1);
  check_float "max row" 4. (Measure.interference w load)

let test_count_load () =
  let w = Measure.identity 3 in
  check_float "counts" 7.
    (Measure.interference w (Load.of_link_counts 3 [ (0, 1); (1, 7); (2, 3) ]))

let test_max_row_sum () =
  let w = Measure.complete 4 in
  check_float "complete row sum" 4. (Measure.max_row_sum w);
  let w = Measure.identity 9 in
  check_float "identity row sum" 1. (Measure.max_row_sum w)

(* ----------------------------------------------------------------- Load *)

let test_load_of_paths () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  (* Forward links along the line are ids 0, 2, 4 (alternating with their
     reverses). Find them through routing instead of guessing. *)
  let r = Dps_network.Routing.make g in
  let p = Option.get (Dps_network.Routing.path r ~src:0 ~dst:3) in
  let load = Load.of_paths (Graph.link_count g) [ p; p ] in
  Alcotest.(check int) "path length" 3 (Path.length p);
  for i = 0 to Path.length p - 1 do
    check_float "each hop counted twice" 2. load.(Path.hop p i)
  done;
  check_float "total mass" 6. (Array.fold_left ( +. ) 0. load)

let test_load_of_link_counts () =
  let load = Load.of_link_counts 4 [ (0, 2); (2, 1); (0, 1) ] in
  Alcotest.(check (array (float 1e-9))) "summed" [| 3.; 0.; 1.; 0. |] load

let test_load_arithmetic () =
  let a = [| 1.; 2. |] and b = [| 3.; 4. |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 4.; 6. |] (Load.add a b);
  Alcotest.(check (array (float 1e-9))) "scale" [| 2.; 4. |] (Load.scale 2. a)

(* ------------------------------------------------------------- Conflict *)

let test_conflict_create () =
  let cg = Conflict_graph.create ~links:4 ~conflicts:[ (0, 1); (1, 2); (0, 1) ] in
  Alcotest.(check int) "size" 4 (Conflict_graph.size cg);
  Alcotest.(check bool) "0-1 conflict" true (Conflict_graph.conflict cg 0 1);
  Alcotest.(check bool) "symmetric" true (Conflict_graph.conflict cg 1 0);
  Alcotest.(check bool) "no self conflict" false (Conflict_graph.conflict cg 1 1);
  Alcotest.(check bool) "absent" false (Conflict_graph.conflict cg 0 3);
  Alcotest.(check int) "dedup degree" 1 (Conflict_graph.degree cg 0);
  Alcotest.(check int) "degree of 1" 2 (Conflict_graph.degree cg 1)

let test_conflict_independent () =
  let cg = Conflict_graph.create ~links:4 ~conflicts:[ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "independent" true (Conflict_graph.independent cg [ 0; 2 ]);
  Alcotest.(check bool) "dependent" false (Conflict_graph.independent cg [ 0; 1; 2 ])

let test_node_constraint () =
  let g = Topology.line ~nodes:3 ~spacing:1. in
  let cg = Conflict_graph.node_constraint g in
  (* Every pair of links on a 3-node line shares the middle node, except the
     two outer link pairs... enumerate: links 0:(0-1),1:(1-0),2:(1-2),3:(2-1).
     All share node 1 pairwise. *)
  for a = 0 to 3 do
    for b = a + 1 to 3 do
      Alcotest.(check bool) "all share node 1" true (Conflict_graph.conflict cg a b)
    done
  done

let test_node_constraint_disjoint () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let cg = Conflict_graph.node_constraint g in
  (* Link 0-1 and link 2-3 share no endpoint. *)
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let l23 = Option.get (Graph.find_link g ~src:2 ~dst:3) in
  Alcotest.(check bool) "disjoint links do not conflict" false
    (Conflict_graph.conflict cg l01 l23)

let test_distance2_wider_than_node () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let node = Conflict_graph.node_constraint g in
  let d2 = Conflict_graph.distance2 g in
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let l23 = Option.get (Graph.find_link g ~src:2 ~dst:3) in
  (* Distance-2: endpoints 1 and 2 are adjacent, so these links conflict. *)
  Alcotest.(check bool) "node constraint: no" false
    (Conflict_graph.conflict node l01 l23);
  Alcotest.(check bool) "distance-2: yes" true (Conflict_graph.conflict d2 l01 l23)

let test_protocol_model () =
  let g = Topology.line ~nodes:3 ~spacing:1. in
  let cg = Conflict_graph.protocol_model g ~delta:0.5 in
  (* Adjacent links conflict under any reasonable guard zone. *)
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let l12 = Option.get (Graph.find_link g ~src:1 ~dst:2) in
  Alcotest.(check bool) "adjacent conflict" true (Conflict_graph.conflict cg l01 l12)

let test_degeneracy_order_is_permutation () =
  let g = Topology.grid ~rows:3 ~cols:3 ~spacing:1. in
  let cg = Conflict_graph.distance2 g in
  let order = Conflict_graph.degeneracy_order cg in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation"
    (Array.init (Conflict_graph.size cg) Fun.id)
    sorted

let test_independence_bound_positive () =
  let g = Topology.grid ~rows:2 ~cols:3 ~spacing:1. in
  let cg = Conflict_graph.node_constraint g in
  let order = Conflict_graph.degeneracy_order cg in
  let rng = Rng.create ~seed:6 () in
  let rho = Conflict_graph.independence_bound cg ~order ~samples:20 rng in
  Alcotest.(check bool) "rho at least 1" true (rho >= 1);
  (* Node-constraint conflict graphs of bounded-degree networks have small
     inductive independence. *)
  Alcotest.(check bool) "rho small" true (rho <= 4)

let test_conflict_to_measure () =
  let cg = Conflict_graph.create ~links:3 ~conflicts:[ (0, 1); (1, 2) ] in
  let order = [| 0; 1; 2 |] in
  let w = Conflict_graph.to_measure cg ~order in
  (* Row e charges conflicting links of rank <= rank(e). *)
  check_float "w(1,0)" 1. (Measure.weight w 1 0);
  check_float "w(0,1) zero (1 ranks later)" 0. (Measure.weight w 0 1);
  check_float "w(2,1)" 1. (Measure.weight w 2 1);
  check_float "w(2,0) no conflict" 0. (Measure.weight w 2 0);
  check_float "diagonal" 1. (Measure.weight w 0 0)

let test_conflict_measure_interference () =
  let cg = Conflict_graph.create ~links:3 ~conflicts:[ (0, 1); (1, 2) ] in
  let order = [| 0; 1; 2 |] in
  let w = Conflict_graph.to_measure cg ~order in
  (* One packet per link: row 1 sees itself + link 0; row 2 sees itself +
     link 1. *)
  check_float "I" 2. (Measure.interference w [| 1.; 1.; 1. |])

(* ------------------------------------------------------------ property *)

let arb_load m = QCheck.(array_of_size (QCheck.Gen.return m) (float_bound_inclusive 10.))

let prop_interference_monotone =
  QCheck.Test.make ~count:200 ~name:"interference monotone in the load"
    (arb_load 6)
    (fun load ->
      let w = Measure.complete 6 in
      let bigger = Array.map (fun x -> x +. 1.) load in
      Measure.interference w load <= Measure.interference w bigger)

let prop_interference_subadditive =
  QCheck.Test.make ~count:200 ~name:"interference subadditive"
    QCheck.(pair (arb_load 5) (arb_load 5))
    (fun (a, b) ->
      let w = Measure.identity 5 in
      Measure.interference w (Load.add a b)
      <= Measure.interference w a +. Measure.interference w b +. 1e-9)

let prop_interference_scales =
  QCheck.Test.make ~count:200 ~name:"interference is homogeneous"
    QCheck.(pair (arb_load 5) (float_bound_inclusive 5.))
    (fun (a, c) ->
      let w = Measure.complete 5 in
      Float.abs
        (Measure.interference w (Load.scale c a) -. (c *. Measure.interference w a))
      < 1e-6)

let prop_identity_bounds_any_measure =
  QCheck.Test.make ~count:100
    ~name:"congestion lower-bounds any measure with unit diagonal"
    (arb_load 6)
    (fun load ->
      let congestion = Measure.interference (Measure.identity 6) load in
      let w =
        Measure.of_function ~m:6 (fun e e' -> if e = e' then 1. else 0.3)
      in
      Measure.interference w load >= congestion -. 1e-9)

let prop_degeneracy_order_always_permutation =
  QCheck.Test.make ~count:50 ~name:"degeneracy order is always a permutation"
    QCheck.(pair (int_range 1 12) (list (pair (int_range 0 11) (int_range 0 11))))
    (fun (n, edges) ->
      let edges =
        List.filter (fun (a, b) -> a < n && b < n && a <> b) edges
      in
      let cg = Conflict_graph.create ~links:n ~conflicts:edges in
      let order = Conflict_graph.degeneracy_order cg in
      let sorted = Array.copy order in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id)

(* The neighbourhood constructions against the all-pairs references
   (test/reference.ml), on small graphs of every family: (model,
   library graph, reference rows). *)
let models g =
  [ ("node constraint", Conflict_graph.node_constraint g, Reference.node_constraint g);
    ("distance-2", Conflict_graph.distance2 g, Reference.distance2 g);
    ("radio", Conflict_graph.radio_model g, Reference.radio_model g) ]
  @ List.map
      (fun delta ->
        ( Printf.sprintf "protocol delta=%g" delta,
          Conflict_graph.protocol_model g ~delta,
          Reference.protocol_model g ~delta ))
      [ 0.; 0.5; 1.; 2. ]

let for_every_model (family, seed) check =
  let g = Reference.graph ~family ~seed in
  Graph.link_count g = 0
  || List.for_all
       (fun (model, cg, rows) ->
         check cg rows || QCheck.Test.fail_reportf "%s differs" model)
       (models g)

let prop_conflict_rows_match_all_pairs =
  QCheck.Test.make ~count:300 ~name:"conflict graphs equal the all-pairs constructions"
    Reference.arb_graph
    (fun case ->
      for_every_model case (fun cg rows ->
          let m = Array.length rows in
          Array.init m (Conflict_graph.conflicts cg) = rows
          && List.for_all
               (fun e ->
                 List.for_all
                   (fun e' -> Conflict_graph.conflict cg e e' = Array.mem e' rows.(e))
                   (List.init (m + 1) Fun.id))
               (List.init m Fun.id)))

let prop_create_matches_table =
  QCheck.Test.make ~count:300 ~name:"create equals the table-built rows"
    QCheck.(pair (int_range 1 12) (list (pair (int_range 0 11) (int_range 0 11))))
    (fun (links, pairs) ->
      let pairs = List.filter (fun (a, b) -> a < links && b < links) pairs in
      let cg = Conflict_graph.create ~links ~conflicts:pairs in
      Array.init links (Conflict_graph.conflicts cg) = Reference.rows ~links pairs)

let prop_order_matches_scan =
  QCheck.Test.make ~count:300 ~name:"smallest-last heap order equals the O(m^2) scan"
    Reference.arb_graph
    (fun case ->
      for_every_model case (fun cg rows ->
          Conflict_graph.degeneracy_order cg = Reference.degeneracy_order rows))

let prop_measure_matches_rows =
  QCheck.Test.make ~count:300 ~name:"slab-built measure equals the row-list measure"
    Reference.arb_graph
    (fun case ->
      let row_of w e =
        let acc = ref [] in
        Measure.iter_row w e (fun e' x -> acc := (e', x, Measure.row_error w e) :: !acc);
        !acc
      in
      for_every_model case (fun cg rows ->
          let order = Conflict_graph.degeneracy_order cg in
          let w = Conflict_graph.to_measure cg ~order in
          let r = Reference.to_measure rows ~order in
          Measure.nnz w = Measure.nnz r
          && List.for_all
               (fun e -> row_of w e = row_of r e)
               (List.init (Array.length rows) Fun.id)))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "interference"
    [ ( "measure",
        [ quick "identity" test_identity_measure;
          quick "complete" test_complete_measure;
          quick "of_function clamps" test_of_function_clamps;
          quick "of_function rejects NaN" test_of_function_rejects_nan;
          quick "of_csr rejects bad slabs" test_of_csr_rejects_bad;
          quick "of_rows diagonal" test_of_rows_diagonal;
          quick "of_rows rejects bad input" test_of_rows_rejects_bad;
          quick "of_rows error paths" test_of_rows_error_paths;
          quick "interference_at" test_interference_at;
          quick "interference of counts" test_count_load;
          quick "max_row_sum" test_max_row_sum ] );
      ( "load",
        [ quick "of_paths" test_load_of_paths;
          quick "of_link_counts" test_load_of_link_counts;
          quick "arithmetic" test_load_arithmetic ] );
      ( "conflict-graph",
        [ quick "create" test_conflict_create;
          quick "independent" test_conflict_independent;
          quick "node constraint" test_node_constraint;
          quick "node constraint disjoint" test_node_constraint_disjoint;
          quick "distance-2 wider" test_distance2_wider_than_node;
          quick "protocol model" test_protocol_model;
          quick "degeneracy order" test_degeneracy_order_is_permutation;
          quick "independence bound" test_independence_bound_positive;
          quick "to_measure" test_conflict_to_measure;
          quick "measure interference" test_conflict_measure_interference ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interference_monotone;
            prop_interference_subadditive;
            prop_interference_scales;
            prop_identity_bounds_any_measure;
            prop_degeneracy_order_always_permutation;
            prop_conflict_rows_match_all_pairs;
            prop_create_matches_table;
            prop_order_matches_scan;
            prop_measure_matches_rows ] ) ]
