(* Regression tests: each case pins a bug found (and fixed) while building
   this reproduction. Kept separate so the failure modes stay documented. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Power_control = Dps_sinr.Power_control
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Lists = Reference.Lists
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm
module Decay = Dps_mac.Decay
module Timeseries = Dps_prelude.Timeseries
module Stability = Dps_core.Stability

(* --- Bug 1: Algorithm 2's stage-1 window read literally as q^i·n gives
   per-window density 1/q > 1 and the pending count *grows*; the fix uses
   q^(i-1)·n (density 1). Regression: a large batch must drain within the
   Lemma 15 budget, which only happens with the corrected window. *)
let test_decay_drains_within_lemma15_budget () =
  let stations = 8 in
  let n = 600 in
  let channel = Channel.create ~oracle:Oracle.Mac ~m:stations () in
  let rng = Rng.create ~seed:90 () in
  let requests = Array.init n (fun k -> Request.make ~link:(k mod stations) ~key:k) in
  let algo = Decay.make ~delta:0.1 () in
  let outcome =
    Algorithm.execute algo ~channel ~rng
      ~measure:(Dps_mac.Mac_measure.make ~m:stations) ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome);
  (* (1+δ)e·n ≈ 3n plus the tail; the broken window needed far more. *)
  Alcotest.(check bool) "within 4n slots" true
    (outcome.Algorithm.slots_used <= 4 * n)

(* --- Bug 2: the stability verdict extrapolated tail growth against the
   tail mean with a >= 1 cut, which pure linear growth (ratio 2/3) can
   never reach: divergence was reported "marginal" forever. *)
let test_linear_growth_is_unstable () =
  let t = Timeseries.create () in
  for i = 0 to 399 do
    Timeseries.add t (float_of_int i *. 2.5)
  done;
  Alcotest.(check string) "pure linear growth" "unstable"
    (Stability.to_string (Stability.assess t))

(* --- Bug 3: power-iteration spectral-radius estimates read off the last
   ∞-norm oscillate on near-bipartite gain matrices (two links that mostly
   affect each other): ratios alternate a<1, b>1 with ab > 1, and the last
   iterate can claim feasibility for an infeasible set. The crossfire pair
   is exactly such a 2-periodic matrix. *)
let test_crossfire_oscillation_detected () =
  let positions =
    [| Point.make 0. 0.; Point.make 3. 0.;
       Point.make 2. 0.; Point.make 1. 0. |]
  in
  let g =
    Graph.create ~positions
      ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]
  in
  (* M = [[0, a],[b, 0]] has rho = sqrt(ab) but step norms alternate. *)
  Alcotest.(check bool) "infeasible despite oscillation" false
    (Power_control.feasible (Params.make ()) g [ 0; 1 ])

(* --- Bug 4: colocated sender/receiver (antiparallel links) give infinite
   normalized gain; NaNs then defeat every float comparison and the set was
   declared feasible. *)
let test_antiparallel_links_infeasible () =
  let g = Topology.line ~nodes:2 ~spacing:5. in
  (* Links 0 and 1 are the two directions of the same edge: each sender
     sits on the other's receiver. *)
  Alcotest.(check bool) "antiparallel pair infeasible" false
    (Power_control.feasible (Params.make ()) g [ 0; 1 ]);
  Alcotest.(check bool) "min_powers agrees" true
    (Power_control.min_powers (Params.make ()) g [ 0; 1 ] = None)

let test_min_powers_always_finite () =
  (* Whatever the instance, a Some result must be finite. *)
  let rng = Rng.create ~seed:91 () in
  for _ = 1 to 20 do
    let g = Topology.random_geometric rng ~nodes:12 ~side:30. ~radius:12. in
    let m = Graph.link_count g in
    if m >= 3 then begin
      let links = [ 0; m / 2; m - 1 ] |> List.sort_uniq compare in
      match Power_control.min_powers (Params.make ()) g links with
      | None -> ()
      | Some p ->
        Alcotest.(check bool) "finite witness" true
          (Array.for_all Float.is_finite p)
    end
  done

(* --- Bug 5: duplicate attempts on one link must fail (link collision) but
   still radiate interference; an early version deduplicated them away. *)
let test_duplicate_attempts_radiate () =
  let m = 8 in
  let phys = Dps_core.Lower_bound.physics ~m in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
  let long = m - 1 in
  Alcotest.(check (list int)) "colliding short pair still jams the long link"
    [] (Lists.step channel [ 0; 0; long ])

(* --- Bug 6: the MAC decay duration was stated in n (the request count)
   instead of I, which made the clean-up budget A(1, m·J) proportional to
   the whole frame and the fixed point diverge. *)
let test_decay_duration_in_i_terms () =
  let algo = Decay.make ~delta:0.1 () in
  let d_small_i = algo.Algorithm.duration ~m:8 ~i:1. ~n:10_000 in
  (* A(1, n) must be tiny even for huge n (polylog tail only). *)
  Alcotest.(check bool) "A(1, n) independent of n's linear term" true
    (d_small_i < 500)

(* --- Bug 7: Stochastic.draw must never inject more than one packet per
   generator per slot even when the distribution has many choices near
   mass 1 (the multinomial segments must not overlap). *)
let test_draw_single_packet_dense_distribution () =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let r = Dps_network.Routing.make g in
  let path src dst = Option.get (Dps_network.Routing.path r ~src ~dst) in
  let inj =
    Dps_injection.Stochastic.make
      [ List.map (fun d -> (path 0 d, 0.24)) [ 1; 2; 3; 4 ] ]
  in
  let rng = Rng.create ~seed:92 () in
  for slot = 0 to 2000 do
    Alcotest.(check bool) "at most one" true
      (List.length (Dps_injection.Stochastic.draw inj rng ~slot) <= 1)
  done

(* --- Bug 8: per-slot delay-class scans made phases O(n·T); the bucketed
   rewrite must keep a dense batch affordable. This is a performance
   regression guard expressed as an operation-count proxy: the run must
   finish well within its budget on a large batch quickly enough to not
   trip the alcotest timeout (conservative smoke bound). *)
let test_delay_select_large_batch_fast () =
  let m = 4 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create ~seed:93 () in
  let requests = Array.init 20_000 (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo = Dps_static.Delay_select.make () in
  let t0 = Sys.time () in
  let outcome =
    Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m) ~requests
  in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome);
  Alcotest.(check bool) "fast enough (O(n + slots))" true (elapsed < 5.)

(* --- Bug 9: Physics parallel links at moderate gap are FEASIBLE (the
   cross distance exceeds the link length); a test once assumed otherwise.
   Pin the geometry fact itself. *)
let test_parallel_gap_geometry () =
  let positions =
    [| Point.make 0. 0.; Point.make 0. 1.;
       Point.make 0.5 0.; Point.make 0.5 1. |]
  in
  let g =
    Graph.create ~positions
      ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]
  in
  let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
  Alcotest.(check bool) "parallel pair at gap 0.5 coexists" true
    (Physics.feasible_set phys [ 0; 1 ])

(* --- Determinism goldens: the incremental interference engine
   (Load_tracker, CSR Measure, the rewired measure-greedy / Channel /
   Protocol bookkeeping) is a pure refactor of the hot loop — fixed-seed
   runs must reproduce the pre-refactor reports bit for bit. The goldens
   below were captured against the tuple-array Measure and the O(k²)
   greedy admission; any drift means the rewrite changed a decision, not
   just its cost. Both scenarios use oracles whose outcome is independent
   of the active-list order Channel now produces. *)

module Routing = Dps_network.Routing
module Path = Dps_network.Path
module Conflict_graph = Dps_interference.Conflict_graph
module Sinr_measure = Dps_sinr.Sinr_measure
module Stochastic = Dps_injection.Stochastic
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver

let check_series name expected ts =
  Alcotest.(check (array (float 0.)))
    name expected (Timeseries.to_array ts)

(* Random multi-hop traffic drawn through the same rng that later drives
   the run — part of the pinned seed path. *)
let golden_traffic rng g measure ~flows ~max_hops ~rate ~target =
  let routing = Routing.make g in
  let n = Graph.node_count g in
  let gens = ref [] in
  let tries = ref 0 in
  while List.length !gens < flows && !tries < 200 * flows do
    incr tries;
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then
      match Routing.path routing ~src ~dst with
      | Some p when Path.length p <= max_hops ->
        gens := [ (p, rate) ] :: !gens
      | _ -> ()
  done;
  Stochastic.calibrate (Stochastic.make !gens) measure ~target

(* Scenario A: measure-greedy admission + SINR power-control oracle on a
   random geometric network — exercises the greedy rewire end to end. *)
let test_golden_measure_greedy_sinr () =
  let rng = Rng.create ~seed:4242 () in
  let g = Topology.random_geometric rng ~nodes:14 ~side:50. ~radius:18. in
  let prm = Params.make ~noise:1e-9 () in
  let phys = Physics.make prm (Power.uniform 1.) g in
  let measure = Sinr_measure.power_control phys in
  let algorithm =
    Dps_static.Measure_greedy.make ~budget:0.3
      ~priority:(Graph.link_length g) ()
  in
  let lambda = 0.02 in
  let inj =
    golden_traffic rng g measure ~flows:8 ~max_hops:8 ~rate:0.005
      ~target:lambda
  in
  let cfg = Protocol.configure ~algorithm ~measure ~lambda ~max_hops:8 () in
  Alcotest.(check int) "frame" 2717 cfg.Protocol.frame;
  let r =
    Driver.run ~config:cfg
      ~oracle:(Oracle.Sinr_power_control (prm, g))
      ~source:(Driver.Stochastic inj) ~frames:25 ~rng
  in
  Alcotest.(check int) "injected" 789 r.Protocol.injected;
  Alcotest.(check int) "delivered" 713 r.Protocol.delivered;
  Alcotest.(check int) "failed events" 0 r.Protocol.failed_events;
  Alcotest.(check int) "max queue" 90 r.Protocol.max_queue;
  check_series "in_system"
    [| 28.; 54.; 69.; 90.; 75.; 66.; 73.; 79.; 67.; 54.; 68.; 71.; 72.;
       72.; 67.; 67.; 62.; 75.; 77.; 72.; 58.; 68.; 69.; 77.; 76. |]
    r.Protocol.in_system;
  check_series "failed_queue" (Array.make 25 0.) r.Protocol.failed_queue;
  check_series "potential" (Array.make 25 0.) r.Protocol.potential

(* Scenario B: delay-select + conflict-graph oracle, injected at 6× the
   dimensioned rate so phase 1 overflows every frame — exercises the
   failed-buffer counters and the clean-up dequeue path under load. *)
let test_golden_overloaded_cleanup () =
  let rng = Rng.create ~seed:1717 () in
  let g = Topology.grid ~rows:3 ~cols:3 ~spacing:1. in
  let cg = Conflict_graph.distance2 g in
  let order = Conflict_graph.degeneracy_order cg in
  let measure = Conflict_graph.to_measure cg ~order in
  let algorithm = Dps_static.Delay_select.make ~c:4. () in
  let lambda = 0.03 in
  let inj =
    golden_traffic rng g measure ~flows:6 ~max_hops:6 ~rate:0.004
      ~target:(6. *. lambda)
  in
  let cfg = Protocol.configure ~algorithm ~measure ~lambda ~max_hops:6 () in
  Alcotest.(check int) "frame" 1608 cfg.Protocol.frame;
  let r =
    Driver.run ~config:cfg ~oracle:(Oracle.Conflict cg)
      ~source:(Driver.Stochastic inj) ~frames:25 ~rng
  in
  Alcotest.(check int) "injected" 3470 r.Protocol.injected;
  Alcotest.(check int) "delivered" 1712 r.Protocol.delivered;
  Alcotest.(check int) "failed events" 1535 r.Protocol.failed_events;
  Alcotest.(check int) "max queue" 1758 r.Protocol.max_queue;
  check_series "in_system"
    [| 137.; 261.; 325.; 389.; 447.; 522.; 578.; 653.; 737.; 802.; 839.;
       903.; 941.; 1012.; 1074.; 1156.; 1242.; 1311.; 1361.; 1417.; 1499.;
       1573.; 1643.; 1704.; 1758. |]
    r.Protocol.in_system;
  check_series "failed_queue"
    [| 0.; 0.; 75.; 163.; 212.; 292.; 361.; 433.; 497.; 563.; 627.; 680.;
       746.; 788.; 841.; 896.; 986.; 1073.; 1144.; 1205.; 1273.; 1339.;
       1387.; 1466.; 1527. |]
    r.Protocol.failed_queue;
  check_series "potential"
    [| 0.; 0.; 129.; 276.; 360.; 510.; 629.; 739.; 833.; 938.; 1047.;
       1134.; 1251.; 1313.; 1398.; 1490.; 1646.; 1791.; 1908.; 2011.;
       2125.; 2234.; 2316.; 2448.; 2554. |]
    r.Protocol.potential

(* --- Value pins for the slot loops outside the frame protocol: the
   max-weight baseline on four oracle families and the Figure-1
   lower-bound loop under both clocks. Recorded before these loops moved
   off the list slot API; the move must not change a single decision. *)

module Max_weight = Dps_core.Max_weight
module Lower_bound = Dps_core.Lower_bound
module Histogram = Dps_prelude.Histogram

(* [count] single-generator flows between random distinct routable
   nodes, drawn from [rng]. *)
let random_flows rng g ~count ~rate =
  let routing = Routing.make g in
  let n = Graph.node_count g in
  let gens = ref [] in
  while List.length !gens < count do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then
      match Routing.path routing ~src ~dst with
      | Some p -> gens := [ (p, rate) ] :: !gens
      | None -> ()
  done;
  Stochastic.make !gens

let check_max_weight ~oracle ~g ~count ~rate ~seed ~injected ~delivered
    ~max_queue ~p50 ~p99 () =
  let rng = Rng.create ~seed () in
  let inj = random_flows rng g ~count ~rate in
  let draw_rng = Rng.split rng in
  let r =
    Max_weight.run ~oracle ~m:(Graph.link_count g)
      ~inject_slot:(fun slot -> Stochastic.draw inj draw_rng ~slot)
      ~slots:3000 rng
  in
  Alcotest.(check int) "injected" injected r.Max_weight.injected;
  Alcotest.(check int) "delivered" delivered r.Max_weight.delivered;
  Alcotest.(check int) "max queue" max_queue r.Max_weight.max_queue;
  Alcotest.(check (float 0.)) "latency p50" p50
    (Histogram.quantile r.Max_weight.latency 0.5);
  Alcotest.(check (float 0.)) "latency p99" p99
    (Histogram.quantile r.Max_weight.latency 0.99)

let test_max_weight_mac =
  check_max_weight ~oracle:Oracle.Mac
    ~g:(Topology.mac_channel ~stations:6)
    ~count:6 ~rate:0.15 ~seed:51 ~injected:2714 ~delivered:2714 ~max_queue:19
    ~p50:3. ~p99:27.

let test_max_weight_conflict () =
  let g = Topology.grid ~rows:3 ~cols:3 ~spacing:10. in
  check_max_weight ~oracle:(Oracle.Conflict (Conflict_graph.distance2 g)) ~g
    ~count:8 ~rate:0.06 ~seed:52 ~injected:1453 ~delivered:1452 ~max_queue:8
    ~p50:2. ~p99:14. ()

let sinr_instance () =
  let rng = Rng.create ~seed:53 () in
  let g = Topology.random_geometric rng ~nodes:12 ~side:40. ~radius:15. in
  (g, Physics.make (Params.make ~noise:1e-9 ()) (Power.uniform 1.) g)

let test_max_weight_sinr () =
  let g, phys = sinr_instance () in
  check_max_weight ~oracle:(Oracle.Sinr phys) ~g ~count:8 ~rate:0.09 ~seed:54
    ~injected:2111 ~delivered:2109 ~max_queue:18 ~p50:4.
    ~p99:19.920000000000073 ()

let test_max_weight_lossy () =
  let g, phys = sinr_instance () in
  check_max_weight ~oracle:(Oracle.Lossy (Oracle.Sinr phys, 0.2)) ~g ~count:8
    ~rate:0.09 ~seed:54 ~injected:2111 ~delivered:2109 ~max_queue:25 ~p50:9.
    ~p99:44. ()

let check_lower_bound clock ~delivered ~long_queue_final ~verdict () =
  let r =
    Lower_bound.run ~m:8 ~clock ~lambda:0.3 ~slots:4000 (Rng.create ~seed:55 ())
  in
  Alcotest.(check int) "delivered" delivered r.Lower_bound.delivered;
  Alcotest.(check int) "long queue" long_queue_final
    r.Lower_bound.long_queue_final;
  Alcotest.(check string) "verdict" verdict
    (Stability.to_string r.Lower_bound.verdict)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "regressions"
    [ ( "determinism-goldens",
        [ quick "measure-greedy + SINR power control (seed 4242)"
            test_golden_measure_greedy_sinr;
          quick "overloaded clean-up, conflict graph (seed 1717)"
            test_golden_overloaded_cleanup;
          quick "max-weight on mac (seed 51)" test_max_weight_mac;
          quick "max-weight on distance-2 conflict (seed 52)"
            test_max_weight_conflict;
          quick "max-weight on sinr (seed 54)" test_max_weight_sinr;
          quick "max-weight on lossy sinr (seed 54)" test_max_weight_lossy;
          quick "lower bound, global clock (seed 55)"
            (check_lower_bound Lower_bound.Global ~delivered:9711
               ~long_queue_final:0 ~verdict:"stable");
          quick "lower bound, local clock (seed 55)"
            (check_lower_bound Lower_bound.Local ~delivered:8513
               ~long_queue_final:1198 ~verdict:"unstable") ] );
      ( "fixed-bugs",
        [ quick "decay window exponent (Lemma 15 drift)" test_decay_drains_within_lemma15_budget;
          quick "linear growth detected unstable" test_linear_growth_is_unstable;
          quick "spectral radius oscillation" test_crossfire_oscillation_detected;
          quick "antiparallel links infeasible" test_antiparallel_links_infeasible;
          quick "min powers finite" test_min_powers_always_finite;
          quick "duplicate attempts radiate" test_duplicate_attempts_radiate;
          quick "decay duration in I" test_decay_duration_in_i_terms;
          quick "one packet per generator" test_draw_single_packet_dense_distribution;
          quick "delay-select batch performance" test_delay_select_large_batch_fast;
          quick "parallel-gap geometry" test_parallel_gap_geometry ] ) ]
