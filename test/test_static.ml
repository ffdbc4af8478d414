(* Unit and property tests for the static scheduling algorithms and their
   shared interface. *)

module Rng = Dps_prelude.Rng
module Graph = Dps_network.Graph
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Trace = Dps_sim.Trace
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm
module Contention = Dps_static.Contention
module Delay_select = Dps_static.Delay_select
module Oneshot = Dps_static.Oneshot

(* ------------------------------------------------------------- Request *)

let test_request_load () =
  let reqs =
    [| Request.make ~link:0 ~key:0;
       Request.make ~link:2 ~key:1;
       Request.make ~link:0 ~key:2 |]
  in
  let load = Request.load ~m:4 reqs in
  Alcotest.(check (array (float 1e-9))) "counts" [| 2.; 0.; 1.; 0. |] load

let test_request_measure () =
  let reqs = Array.init 6 (fun k -> Request.make ~link:(k mod 2) ~key:k) in
  Alcotest.(check (float 1e-9)) "identity measure = congestion" 3.
    (Request.measure_of ~measure:(Measure.identity 4) reqs);
  Alcotest.(check (float 1e-9)) "complete measure = count" 6.
    (Request.measure_of ~measure:(Measure.complete 4) reqs)

(* ------------------------------------------------------------- Oneshot *)

let test_oneshot_wireline_serves_all () =
  let m = 4 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create () in
  let requests = Array.init 12 (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let outcome =
    Algorithm.execute Oneshot.algorithm ~channel ~rng
      ~measure:(Measure.identity m) ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome);
  (* Congestion is 3: exactly 3 slots are needed and used. *)
  Alcotest.(check int) "slots = congestion" 3 outcome.Algorithm.slots_used

let test_oneshot_duration_is_congestion () =
  Alcotest.(check int) "duration" 5
    (Oneshot.algorithm.Algorithm.duration ~m:4 ~i:5. ~n:20)

let test_oneshot_respects_budget () =
  let m = 2 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create () in
  let requests = Array.init 10 (fun k -> Request.make ~link:0 ~key:k) in
  let outcome =
    Oneshot.algorithm.Algorithm.run ~channel ~rng
      ~measure:(Measure.identity m) ~requests ~budget:4
  in
  Alcotest.(check int) "capped" 4 outcome.Algorithm.slots_used;
  Alcotest.(check int) "served as many as slots" 4
    (Algorithm.served_count outcome)

(* ---------------------------------------------------------- Contention *)

let sinr_setup seed =
  let rng = Rng.create ~seed () in
  let g = Topology.random_geometric rng ~nodes:24 ~side:60. ~radius:12. in
  let phys = Physics.make (Params.make ()) (Power.linear 1.) g in
  let measure = Sinr_measure.linear_power phys in
  (g, phys, measure, rng)

let test_contention_serves_all_sinr () =
  let g, phys, measure, rng = sinr_setup 44 in
  let m = Graph.link_count g in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
  let requests = Array.init (3 * m) (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo = Contention.make ~c:4. () in
  let outcome = Algorithm.execute algo ~channel ~rng ~measure ~requests in
  Alcotest.(check bool) "all served within planned duration" true
    (Algorithm.all_served outcome)

let test_contention_mac_single_station () =
  (* One station on a MAC: transmits with p = 1/(c·1); should drain fast. *)
  let m = 1 in
  let channel = Channel.create ~oracle:Oracle.Mac ~m () in
  let rng = Rng.create ~seed:2 () in
  let requests = [| Request.make ~link:0 ~key:0 |] in
  let algo = Contention.make ~c:2. () in
  let outcome =
    algo.Algorithm.run ~channel ~rng ~measure:(Measure.complete 1) ~requests
      ~budget:500
  in
  Alcotest.(check bool) "served" true (Algorithm.all_served outcome)

let test_contention_adaptive_not_slower_much () =
  let g, phys, measure, rng = sinr_setup 45 in
  let m = Graph.link_count g in
  let requests = Array.init (2 * m) (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let run algo =
    let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
    let outcome = Algorithm.execute algo ~channel ~rng ~measure ~requests in
    Alcotest.(check bool) "all served" true (Algorithm.all_served outcome);
    outcome.Algorithm.slots_used
  in
  let plain = run (Contention.make ~c:4. ()) in
  let adaptive = run (Contention.make ~c:4. ~adaptive:true ()) in
  Alcotest.(check bool) "both finish" true (plain > 0 && adaptive > 0)

let test_contention_zero_requests () =
  let channel = Channel.create ~oracle:Oracle.Mac ~m:2 () in
  let rng = Rng.create () in
  let outcome =
    (Contention.make ()).Algorithm.run ~channel ~rng
      ~measure:(Measure.complete 2) ~requests:[||] ~budget:100
  in
  Alcotest.(check int) "no slots" 0 outcome.Algorithm.slots_used

let test_theorem19_conflict_graph () =
  (* The literal Theorem 19 algorithm on a distance-2 conflict graph. *)
  let g = Topology.grid ~rows:3 ~cols:3 ~spacing:1. in
  let cg = Conflict_graph.distance2 g in
  let order = Conflict_graph.degeneracy_order cg in
  let measure = Conflict_graph.to_measure cg ~order in
  let m = Graph.link_count g in
  let channel = Channel.create ~oracle:(Oracle.Conflict cg) ~m () in
  let rng = Rng.create ~seed:5 () in
  let requests = Array.init (2 * m) (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let outcome =
    Algorithm.execute Contention.theorem_19 ~channel ~rng ~measure ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome)

(* -------------------------------------------------------- Delay_select *)

let test_delay_select_serves_all_sinr () =
  let g, phys, measure, rng = sinr_setup 46 in
  let m = Graph.link_count g in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
  let requests = Array.init (4 * m) (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo = Delay_select.make ~c:4. () in
  let outcome = Algorithm.execute algo ~channel ~rng ~measure ~requests in
  Alcotest.(check bool) "all served within planned duration" true
    (Algorithm.all_served outcome)

let test_delay_select_linear_in_i () =
  (* Doubling the per-link load roughly doubles slots used (O(I) regime). *)
  let g, phys, measure, _ = sinr_setup 47 in
  let m = Graph.link_count g in
  let slots mult seed =
    let rng = Rng.create ~seed () in
    let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
    let requests =
      Array.init (mult * m) (fun k -> Request.make ~link:(k mod m) ~key:k)
    in
    let algo = Delay_select.make ~c:4. () in
    let outcome = Algorithm.execute algo ~channel ~rng ~measure ~requests in
    Alcotest.(check bool) "served" true (Algorithm.all_served outcome);
    float_of_int outcome.Algorithm.slots_used
  in
  let s2 = slots 2 1 and s8 = slots 8 2 in
  (* 4x the load: slots should grow by somewhere between 2x and 8x. *)
  Alcotest.(check bool) "roughly linear scaling" true
    (s8 /. s2 > 1.5 && s8 /. s2 < 10.)

let test_delay_select_wireline () =
  let m = 3 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create ~seed:9 () in
  let requests = Array.init 9 (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo = Delay_select.make () in
  let outcome =
    Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m) ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome)

(* The contention port against the list implementation it replaced
   (test/reference.ml): on random request sets over SINR, conflict and
   lossy channels, plain and adaptive, with the planned budget and a
   short one, the outcomes, the channel trace totals and the rng stream
   after the runs must all be equal. *)
let contention_channels =
  let rng = Rng.create ~seed:61 () in
  let g = Topology.random_geometric rng ~nodes:16 ~side:40. ~radius:12. in
  let phys = Physics.make (Params.make ()) (Power.linear 1.) g in
  let sinr = Sinr_measure.linear_power phys in
  let cg = Conflict_graph.distance2 (Topology.grid ~rows:3 ~cols:4 ~spacing:10.) in
  let conflict =
    Conflict_graph.to_measure cg ~order:(Conflict_graph.degeneracy_order cg)
  in
  [ (Oracle.Sinr phys, sinr);
    (Oracle.Lossy (Oracle.Sinr phys, 0.2), sinr);
    (Oracle.Conflict cg, conflict);
    (Oracle.Lossy (Oracle.Conflict cg, 0.3), conflict) ]

let prop_contention_reference =
  QCheck.Test.make ~count:30 ~name:"contention matches the list reference"
    QCheck.(triple small_nat (int_range 0 120) bool)
    (fun (seed, n, adaptive) ->
      let c = 4. in
      let algo = Contention.make ~c ~adaptive () in
      let reference ~channel ~rng ~measure ~requests ~budget =
        Reference.contention ~c ~adaptive ~channel ~rng ~measure ~requests
          ~budget ()
      in
      List.for_all
        (fun (oracle, measure) ->
          let m = Measure.size measure in
          let links = Rng.create ~seed () in
          let requests =
            Array.init n (fun k -> Request.make ~link:(Rng.int links m) ~key:k)
          in
          let run f =
            let rng = Rng.create ~seed () in
            let channel = Channel.create ~rng:(Rng.split rng) ~oracle ~m () in
            let i = Request.measure_of ~measure requests in
            let budget = algo.Algorithm.duration ~m ~i ~n in
            let full = f ~channel ~rng ~measure ~requests ~budget in
            let short = f ~channel ~rng ~measure ~requests ~budget:(budget / 5) in
            let tr = Channel.trace channel in
            ( full, short,
              (Trace.slots tr, Trace.attempts tr, Trace.successes tr, Trace.busy_slots tr),
              Rng.int rng 1_000_000 )
          in
          run algo.Algorithm.run = run reference)
        contention_channels)

(* ------------------------------------------------------------ generic *)

let test_split_outcome () =
  let reqs = Array.init 3 (fun k -> Request.make ~link:k ~key:k) in
  let outcome = { Algorithm.served = [| true; false; true |]; slots_used = 5 } in
  let ok, failed = Algorithm.split_outcome reqs outcome in
  Alcotest.(check int) "served" 2 (List.length ok);
  Alcotest.(check int) "failed" 1 (List.length failed);
  Alcotest.(check int) "failed is key 1" 1
    (match failed with [ r ] -> r.Request.key | _ -> -1)

(* ------------------------------------------------------------ property *)

(* Whatever the algorithm and load, the channel trace must account for
   exactly the successes the outcome reports. *)
let prop_outcome_matches_trace algo_name make_algo =
  QCheck.Test.make ~count:40
    ~name:(algo_name ^ ": outcome successes match channel trace")
    QCheck.(pair (int_range 0 1000) (int_range 1 30))
    (fun (seed, n_req) ->
      let m = 5 in
      let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
      let rng = Rng.create ~seed () in
      let requests =
        Array.init n_req (fun k -> Request.make ~link:(k mod m) ~key:k)
      in
      let algo = make_algo () in
      let outcome =
        Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m)
          ~requests
      in
      Trace.successes (Channel.trace channel) = Algorithm.served_count outcome)

let prop_budget_respected =
  QCheck.Test.make ~count:40 ~name:"algorithms never exceed their budget"
    QCheck.(triple (int_range 0 1000) (int_range 1 40) (int_range 1 60))
    (fun (seed, n_req, budget) ->
      let m = 4 in
      let channel = Channel.create ~oracle:Oracle.Mac ~m () in
      let rng = Rng.create ~seed () in
      let requests =
        Array.init n_req (fun k -> Request.make ~link:(k mod m) ~key:k)
      in
      let algo = Contention.make () in
      let outcome =
        algo.Algorithm.run ~channel ~rng ~measure:(Measure.complete m)
          ~requests ~budget
      in
      outcome.Algorithm.slots_used <= budget
      && Channel.now channel = outcome.Algorithm.slots_used)

let prop_no_request_served_twice =
  (* served array is boolean so "twice" cannot happen structurally; check
     instead that successes on the channel never exceed request count. *)
  QCheck.Test.make ~count:40 ~name:"channel successes never exceed requests"
    QCheck.(pair (int_range 0 1000) (int_range 1 40))
    (fun (seed, n_req) ->
      let m = 6 in
      let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
      let rng = Rng.create ~seed () in
      let requests =
        Array.init n_req (fun k -> Request.make ~link:(k mod m) ~key:k)
      in
      let algo = Delay_select.make () in
      let outcome =
        Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m)
          ~requests
      in
      ignore outcome;
      Trace.successes (Channel.trace channel) <= n_req)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "static"
    [ ( "request",
        [ quick "load" test_request_load; quick "measure" test_request_measure ] );
      ( "oneshot",
        [ quick "wireline serves all" test_oneshot_wireline_serves_all;
          quick "duration is congestion" test_oneshot_duration_is_congestion;
          quick "respects budget" test_oneshot_respects_budget ] );
      ( "contention",
        [ quick "serves all under SINR" test_contention_serves_all_sinr;
          quick "single MAC station" test_contention_mac_single_station;
          quick "adaptive variant" test_contention_adaptive_not_slower_much;
          quick "zero requests" test_contention_zero_requests;
          quick "theorem 19 on conflict graph" test_theorem19_conflict_graph ] );
      ( "delay-select",
        [ quick "serves all under SINR" test_delay_select_serves_all_sinr;
          quick "roughly linear in I" test_delay_select_linear_in_i;
          quick "wireline" test_delay_select_wireline ] );
      ("outcome", [ quick "split" test_split_outcome ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_contention_reference;
            prop_outcome_matches_trace "contention" (fun () -> Contention.make ());
            prop_outcome_matches_trace "delay-select" (fun () ->
                Delay_select.make ());
            prop_outcome_matches_trace "oneshot" (fun () -> Oneshot.algorithm);
            prop_budget_respected;
            prop_no_request_served_twice ] ) ]
