(* Unit and property tests for the SINR substrate: physics, power
   assignments, affectance, and the Section 6 measures. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Topology = Dps_network.Topology
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Lists = Reference.Lists
module Affectance = Dps_sinr.Affectance
module Sinr_measure = Dps_sinr.Sinr_measure
module Measure = Dps_interference.Measure

let check_float = Alcotest.(check (float 1e-9))

(* Two parallel unit links, senders at distance [gap] apart. *)
let parallel_pair ~gap =
  let positions =
    [| Point.make 0. 0.; Point.make 0. 1.;  (* link 0: sender, receiver *)
       Point.make gap 0.; Point.make gap 1. |]
  in
  Graph.create ~positions
    ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]

(* --------------------------------------------------------------- Params *)

let test_params_defaults () =
  let p = Params.make () in
  check_float "alpha" 3. p.Params.alpha;
  check_float "beta" 1. p.Params.beta;
  check_float "noise" 0. p.Params.noise

let test_params_validation () =
  Alcotest.check_raises "alpha" (Invalid_argument "Params.make: alpha <= 0")
    (fun () -> ignore (Params.make ~alpha:0. ()));
  Alcotest.check_raises "beta" (Invalid_argument "Params.make: beta <= 0")
    (fun () -> ignore (Params.make ~beta:(-1.) ()));
  Alcotest.check_raises "noise" (Invalid_argument "Params.make: noise < 0")
    (fun () -> ignore (Params.make ~noise:(-0.1) ()))

(* ---------------------------------------------------------------- Power *)

let test_power_uniform () =
  let p = Power.uniform 2. in
  check_float "independent of length" 2. (Power.power p ~length:5. ~alpha:3.);
  check_float "independent of length" 2. (Power.power p ~length:0.1 ~alpha:3.)

let test_power_linear () =
  let p = Power.linear 2. in
  check_float "d=1" 2. (Power.power p ~length:1. ~alpha:3.);
  check_float "d=2" 16. (Power.power p ~length:2. ~alpha:3.)

let test_power_square_root () =
  let p = Power.square_root 1. in
  check_float "d=4, alpha=2" 4. (Power.power p ~length:4. ~alpha:2.)

let test_power_monotone_sublinear () =
  let lengths = [| 0.5; 1.; 2.; 4.; 8. |] in
  Alcotest.(check bool) "linear qualifies" true
    (Power.is_monotone_sublinear (Power.linear 1.) ~alpha:3. ~lengths);
  Alcotest.(check bool) "sqrt qualifies" true
    (Power.is_monotone_sublinear (Power.square_root 1.) ~alpha:3. ~lengths);
  Alcotest.(check bool) "uniform qualifies" true
    (Power.is_monotone_sublinear (Power.uniform 1.) ~alpha:3. ~lengths);
  (* Super-linear powers are not sublinear. *)
  let p = Power.custom ~name:"p=d^(2alpha)" (fun ~length ~alpha -> length ** (2. *. alpha)) in
  Alcotest.(check bool) "superlinear fails" false
    (Power.is_monotone_sublinear p ~alpha:3. ~lengths);
  (* Decreasing powers are not monotone. *)
  let p = Power.custom ~name:"1/d" (fun ~length ~alpha:_ -> 1. /. length) in
  Alcotest.(check bool) "decreasing fails" false
    (Power.is_monotone_sublinear p ~alpha:3. ~lengths)

(* -------------------------------------------------------------- Physics *)

let test_physics_signal () =
  let g = parallel_pair ~gap:10. in
  let phys = Physics.make (Params.make ~alpha:2. ()) (Power.uniform 4.) g in
  Alcotest.(check int) "size" 2 (Physics.size phys);
  check_float "length" 1. (Physics.length phys 0);
  check_float "power" 4. (Physics.power_of phys 0);
  (* signal = p / d^alpha = 4 / 1. *)
  check_float "signal" 4. (Physics.signal phys 0)

let test_physics_interference_distance () =
  let g = parallel_pair ~gap:10. in
  let phys = Physics.make (Params.make ~alpha:2. ()) (Power.uniform 4.) g in
  (* Sender of link 1 at (10,0); receiver of link 0 at (0,1):
     d² = 101, interference = 4/101. *)
  check_float "cross interference" (4. /. 101.)
    (Physics.interference_from phys ~src:1 ~dst:0)

let test_physics_single_link_feasible () =
  let g = parallel_pair ~gap:10. in
  let phys = Physics.make (Params.make ~noise:0.1 ()) (Power.uniform 1.) g in
  Alcotest.(check bool) "alone with low noise" true
    (Lists.feasible phys ~active:[ 0 ] 0)

let test_physics_noise_blocks () =
  let g = parallel_pair ~gap:10. in
  (* Noise above signal/beta: nothing can ever transmit. *)
  let phys = Physics.make (Params.make ~noise:10. ()) (Power.uniform 1.) g in
  Alcotest.(check bool) "drowned by noise" false
    (Lists.feasible phys ~active:[ 0 ] 0)

(* Two collinear unit links head to head: the interfering sender sits at
   distance [gap] from link 0's receiver. *)
let collinear_pair ~gap =
  let positions =
    [| Point.make 0. 0.; Point.make 0. 1.;
       Point.make 0. (1. +. gap); Point.make 0. (2. +. gap) |]
  in
  Graph.create ~positions
    ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]

let test_physics_close_links_collide () =
  let g = collinear_pair ~gap:0.5 in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  (* Interferer closer than the intended sender: SINR < 1 = beta. *)
  Alcotest.(check bool) "collide" false (Lists.feasible phys ~active:[ 0; 1 ] 0);
  Alcotest.(check bool) "set infeasible" false (Physics.feasible_set phys [ 0; 1 ])

let test_physics_far_links_coexist () =
  let g = parallel_pair ~gap:100. in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  Alcotest.(check bool) "coexist" true (Physics.feasible_set phys [ 0; 1 ])

let test_physics_sinr_value () =
  let g = parallel_pair ~gap:10. in
  let phys = Physics.make (Params.make ~alpha:2. ()) (Power.uniform 1.) g in
  (* SINR of link 0 against link 1: signal 1, interference 1/101, no noise. *)
  check_float "sinr" 101. (Lists.sinr phys ~active:[ 0; 1 ] 0);
  Alcotest.(check bool) "alone is infinite" true
    (Lists.sinr phys ~active:[ 0 ] 0 = infinity)

let test_physics_length_ratio () =
  let g = Topology.figure_one ~m:8 in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  Alcotest.(check (float 1e-3)) "delta = longest/shortest" 640.
    (Physics.length_ratio phys)

let test_physics_zero_length_rejected () =
  let positions = [| Point.make 0. 0.; Point.make 0. 0.; Point.make 1. 0. |] in
  let g =
    Graph.create ~positions ~links:[ Link.make ~id:0 ~src:0 ~dst:1 ]
  in
  Alcotest.check_raises "zero-length link"
    (Invalid_argument "Physics.make: zero-length link") (fun () ->
      ignore (Physics.make (Params.make ()) (Power.uniform 1.) g))

(* ----------------------------------------------------------- Affectance *)

let test_affectance_range () =
  let g = parallel_pair ~gap:2. in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  let a = Affectance.affectance phys ~src:1 ~dst:0 in
  Alcotest.(check bool) "in [0,1]" true (a >= 0. && a <= 1.)

let test_affectance_far_is_small () =
  let g = parallel_pair ~gap:100. in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  Alcotest.(check bool) "tiny" true (Affectance.affectance phys ~src:1 ~dst:0 < 0.01)

let test_affectance_close_is_one () =
  let g = collinear_pair ~gap:0.2 in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  check_float "clamped at 1" 1. (Affectance.affectance phys ~src:1 ~dst:0)

let test_affectance_noise_saturates () =
  let g = parallel_pair ~gap:100. in
  (* Noise exactly at tolerance: denominator <= 0 means affectance 1. *)
  let phys = Physics.make (Params.make ~noise:1. ()) (Power.uniform 1.) g in
  check_float "saturated" 1. (Affectance.affectance phys ~src:1 ~dst:0)

let test_affectance_feasibility_link () =
  (* If total affectance on a link is < 1 the link is SINR-feasible
     (with zero noise and beta = 1 they coincide up to the min-clamp). *)
  let rng = Rng.create ~seed:31 () in
  let g = Topology.random_geometric rng ~nodes:20 ~side:30. ~radius:6. in
  let phys = Physics.make (Params.make ()) (Power.linear 1.) g in
  let m = Graph.link_count g in
  let active = List.filter (fun e -> e mod 3 = 0) (List.init m Fun.id) in
  List.iter
    (fun e ->
      let total = Affectance.total_on phys ~active e in
      if total < 1. then
        Alcotest.(check bool) "affectance < 1 implies feasible" true
          (Lists.feasible phys ~active e))
    active

let test_average_affectance () =
  let g = parallel_pair ~gap:2. in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  let a01 = Affectance.affectance phys ~src:0 ~dst:1 in
  let a10 = Affectance.affectance phys ~src:1 ~dst:0 in
  check_float "average over the pair" ((a01 +. a10) /. 2.)
    (Affectance.average phys [ 0; 1 ]);
  check_float "empty" 0. (Affectance.average phys []);
  check_float "singleton" 0. (Affectance.average phys [ 0 ])

(* --------------------------------------------------------- Sinr_measure *)

let test_linear_power_measure () =
  let g = parallel_pair ~gap:5. in
  let phys = Physics.make (Params.make ()) (Power.linear 1.) g in
  let w = Sinr_measure.linear_power phys in
  check_float "diagonal" 1. (Measure.weight w 0 0);
  check_float "W(0,1) = affectance of 1 on 0"
    (Affectance.affectance phys ~src:1 ~dst:0)
    (Measure.weight w 0 1)

let test_monotone_measure_charges_longer () =
  (* A short link and a long link: only the short link's row charges the
     longer one. *)
  let positions =
    [| Point.make 0. 0.; Point.make 0. 1.;
       Point.make 20. 0.; Point.make 20. 4. |]
  in
  let g =
    Graph.create ~positions
      ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]
  in
  let phys = Physics.make (Params.make ()) (Power.square_root 1.) g in
  let w = Sinr_measure.monotone_sublinear phys in
  Alcotest.(check bool) "short row charges long" true (Measure.weight w 0 1 > 0.);
  check_float "long row does not charge short" 0. (Measure.weight w 1 0)

let test_power_control_measure_formula () =
  let positions =
    [| Point.make 0. 0.; Point.make 0. 1.;
       Point.make 10. 0.; Point.make 10. 2. |]
  in
  let g =
    Graph.create ~positions
      ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]
  in
  let phys = Physics.make (Params.make ~alpha:2. ()) (Power.uniform 1.) g in
  let w = Sinr_measure.power_control phys in
  (* d(l0)=1, s=(0,0), r=(0,1); l1: s'=(10,0), r'=(10,2).
     d(s,r') = sqrt(104), d(s',r) = sqrt(101).
     W(0,1) = 1/104 + 1/101. *)
  Alcotest.(check (float 1e-9)) "formula" ((1. /. 104.) +. (1. /. 101.))
    (Measure.weight w 0 1);
  check_float "longer row is 0" 0. (Measure.weight w 1 0)

let test_feasible_set_has_constant_measure () =
  (* Sanity check behind Corollary 12: a single-slot feasible set under
     linear powers has bounded interference measure per link. *)
  let rng = Rng.create ~seed:8 () in
  let g = Topology.random_geometric rng ~nodes:24 ~side:50. ~radius:8. in
  let phys = Physics.make (Params.make ()) (Power.linear 1.) g in
  let w = Sinr_measure.linear_power phys in
  let m = Graph.link_count g in
  (* Greedily build a feasible set. *)
  let active = ref [] in
  for e = 0 to m - 1 do
    if Physics.feasible_set phys (e :: !active) then active := e :: !active
  done;
  let load = Array.make m 0. in
  List.iter (fun e -> load.(e) <- 1.) !active;
  let i = Measure.interference w load in
  Alcotest.(check bool) "feasible set exists" true (List.length !active >= 2);
  (* With beta = 1 a feasible set has total affectance < 1 on each member;
     the measure therefore stays within a small constant of 1 + 1. *)
  Alcotest.(check bool) "measure is O(1)" true (i <= 4.)

(* ------------------------------------------------------------ property *)

let random_phys seed =
  let rng = Rng.create ~seed () in
  let g = Topology.random_geometric rng ~nodes:12 ~side:20. ~radius:8. in
  Physics.make (Params.make ()) (Power.uniform 1.) g

let prop_affectance_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"affectance lies in [0,1]"
    QCheck.(int_range 0 500)
    (fun seed ->
      let phys = random_phys seed in
      let m = Physics.size phys in
      if m < 2 then true
      else begin
        let ok = ref true in
        for src = 0 to m - 1 do
          for dst = 0 to m - 1 do
            if src <> dst then begin
              let a = Affectance.affectance phys ~src ~dst in
              if a < 0. || a > 1. then ok := false
            end
          done
        done;
        !ok
      end)

let prop_sinr_decreases_with_interferers =
  QCheck.Test.make ~count:100 ~name:"SINR decreases as interferers join"
    QCheck.(int_range 0 500)
    (fun seed ->
      let phys = random_phys seed in
      let m = Physics.size phys in
      if m < 3 then true
      else begin
        let s1 = Lists.sinr phys ~active:[ 0; 1 ] 0 in
        let s2 = Lists.sinr phys ~active:[ 0; 1; 2 ] 0 in
        s2 <= s1 +. 1e-9
      end)

let prop_feasible_subset =
  QCheck.Test.make ~count:100
    ~name:"a feasible set's members stay feasible in subsets"
    QCheck.(int_range 0 500)
    (fun seed ->
      let phys = random_phys seed in
      let m = Physics.size phys in
      if m < 3 then true
      else begin
        let set = [ 0; 1; 2 ] in
        if Physics.feasible_set phys set then
          Lists.feasible phys ~active:[ 0; 1 ] 0
          && Lists.feasible phys ~active:[ 0; 2 ] 0
        else true
      end)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sinr"
    [ ( "params",
        [ quick "defaults" test_params_defaults;
          quick "validation" test_params_validation ] );
      ( "power",
        [ quick "uniform" test_power_uniform;
          quick "linear" test_power_linear;
          quick "square root" test_power_square_root;
          quick "monotone sublinear check" test_power_monotone_sublinear ] );
      ( "physics",
        [ quick "signal" test_physics_signal;
          quick "interference distance" test_physics_interference_distance;
          quick "single link feasible" test_physics_single_link_feasible;
          quick "noise blocks" test_physics_noise_blocks;
          quick "close links collide" test_physics_close_links_collide;
          quick "far links coexist" test_physics_far_links_coexist;
          quick "sinr value" test_physics_sinr_value;
          quick "length ratio" test_physics_length_ratio;
          quick "zero length rejected" test_physics_zero_length_rejected ] );
      ( "affectance",
        [ quick "range" test_affectance_range;
          quick "far is small" test_affectance_far_is_small;
          quick "close is one" test_affectance_close_is_one;
          quick "noise saturates" test_affectance_noise_saturates;
          quick "predicts feasibility" test_affectance_feasibility_link;
          quick "average" test_average_affectance ] );
      ( "measure",
        [ quick "linear power" test_linear_power_measure;
          quick "monotone charges longer" test_monotone_measure_charges_longer;
          quick "power control formula" test_power_control_measure_formula;
          quick "feasible set measure O(1)" test_feasible_set_has_constant_measure ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_affectance_in_unit_interval;
            prop_sinr_decreases_with_interferers;
            prop_feasible_subset ] ) ]
