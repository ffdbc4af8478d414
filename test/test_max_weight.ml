(* Tests for the Tassiulas–Ephremides greedy max-weight baseline. *)

module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Timeseries = Dps_prelude.Timeseries
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Stochastic = Dps_injection.Stochastic
module Max_weight = Dps_core.Max_weight
module Stability = Dps_core.Stability

let mac_injection g ~stations ~rate =
  let per = rate /. float_of_int stations in
  Stochastic.make
    (List.init stations (fun i -> [ (Path.of_links g [ i ], per) ]))

let run_mac ~rate ~slots ~seed =
  let stations = 6 in
  let g = Topology.mac_channel ~stations in
  let inj = mac_injection g ~stations ~rate in
  let rng = Rng.create ~seed () in
  let draw_rng = Rng.split rng in
  Max_weight.run ~oracle:Oracle.Mac ~m:stations
    ~inject_slot:(fun slot -> Stochastic.draw inj draw_rng ~slot)
    ~slots rng

let test_mac_high_rate_stable () =
  (* Max-weight on the MAC serves one packet per busy slot: stable at 0.8,
     far beyond the symmetric protocols' 1/e. *)
  let r = run_mac ~rate:0.8 ~slots:20_000 ~seed:30 in
  Alcotest.(check bool) "high delivery" true
    (float_of_int r.Max_weight.delivered
    > 0.95 *. float_of_int r.Max_weight.injected);
  Alcotest.(check string) "stable" "stable"
    (Stability.to_string (Max_weight.verdict r))

let test_mac_overload_unstable () =
  let r = run_mac ~rate:1.3 ~slots:20_000 ~seed:31 in
  Alcotest.(check string) "unstable beyond 1" "unstable"
    (Stability.to_string (Max_weight.verdict r))

let test_conservation () =
  let r = run_mac ~rate:0.5 ~slots:5_000 ~seed:32 in
  let backlog = int_of_float (Timeseries.last r.Max_weight.in_system) in
  Alcotest.(check bool) "delivered <= injected" true
    (r.Max_weight.delivered <= r.Max_weight.injected);
  (* The last sample may predate a few final slots; allow slack of one
     sampling interval's worth of arrivals. *)
  Alcotest.(check bool) "backlog consistent" true
    (abs (r.Max_weight.injected - r.Max_weight.delivered - backlog) <= 64)

let test_multihop_wireline () =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let m = Graph.link_count g in
  let routing = Routing.make g in
  let path = Option.get (Routing.path routing ~src:0 ~dst:4) in
  let inj = Stochastic.make [ [ (path, 0.6) ] ] in
  let rng = Rng.create ~seed:33 () in
  let draw_rng = Rng.split rng in
  let r =
    Max_weight.run ~oracle:Oracle.Wireline ~m
      ~inject_slot:(fun slot -> Stochastic.draw inj draw_rng ~slot)
      ~slots:10_000 rng
  in
  (* Wireline: each link serves one per slot; max-weight keeps a 0.6-rate
     4-hop flow stable and delivers nearly everything. *)
  Alcotest.(check string) "stable" "stable"
    (Stability.to_string (Max_weight.verdict r));
  Alcotest.(check bool) "delivers" true
    (float_of_int r.Max_weight.delivered
    > 0.9 *. float_of_int r.Max_weight.injected);
  (* Latency of delivered packets: at least one slot per hop. *)
  Alcotest.(check bool) "latency >= path length" true
    (Dps_prelude.Histogram.quantile r.Max_weight.latency 0. >= 4.)

let test_figure_one_max_weight () =
  (* On the Theorem 20 instance, centralized max-weight keeps even the long
     link served: it never schedules short links against it when its queue
     dominates. *)
  let m = 8 in
  let phys = Dps_core.Lower_bound.physics ~m in
  let g = Dps_network.Topology.figure_one ~m in
  let rng = Rng.create ~seed:34 () in
  let draw_rng = Rng.split rng in
  let paths = Array.init m (fun e -> Path.of_links g [ e ]) in
  let lambda = 0.3 in
  let r =
    Max_weight.run ~oracle:(Oracle.Sinr phys) ~m
      ~inject_slot:(fun _ ->
        List.filter_map
          (fun e -> if Rng.bernoulli draw_rng lambda then Some paths.(e) else None)
          (List.init m Fun.id))
      ~slots:20_000 rng
  in
  Alcotest.(check string) "centralized scheduler stays stable" "stable"
    (Stability.to_string (Max_weight.verdict r))

let test_deterministic () =
  let a = run_mac ~rate:0.5 ~slots:2_000 ~seed:35 in
  let b = run_mac ~rate:0.5 ~slots:2_000 ~seed:35 in
  Alcotest.(check (pair int int)) "reproducible"
    (a.Max_weight.injected, a.Max_weight.delivered)
    (b.Max_weight.injected, b.Max_weight.delivered)

let prop_successes_bounded_by_service =
  QCheck.Test.make ~count:20 ~name:"max-weight never over-serves the MAC"
    QCheck.(pair (int_range 0 1000) (float_range 0.1 1.5))
    (fun (seed, rate) ->
      let r = run_mac ~rate ~slots:1_000 ~seed in
      (* One success per slot at most on the MAC. *)
      r.Max_weight.delivered <= r.Max_weight.slots
      && r.Max_weight.delivered <= r.Max_weight.injected)

(* The greedy set against the list original in test/reference.ml: the
   same links in the same newest-first order, on random queue lengths
   with many ties, under every rule family; Lossy probes its base rule. *)
let greedy_oracles =
  let rng = Rng.create ~seed:36 () in
  let geometric = Topology.random_geometric rng ~nodes:12 ~side:30. ~radius:10. in
  let phys =
    Dps_sinr.Physics.make (Dps_sinr.Params.make ()) (Dps_sinr.Power.uniform 1.)
      geometric
  in
  let small = Topology.random_geometric rng ~nodes:6 ~side:20. ~radius:10. in
  let cg =
    Dps_interference.Conflict_graph.create ~links:30
      ~conflicts:(List.init 60 (fun _ -> (Rng.int rng 30, Rng.int rng 30)))
  in
  [ (Oracle.Mac, 6);
    (Oracle.Wireline, 6);
    (Oracle.Conflict cg, 30);
    (Oracle.Sinr phys, Graph.link_count geometric);
    ( Oracle.Lossy (Oracle.Lossy (Oracle.Sinr phys, 0.3), 0.1),
      Graph.link_count geometric );
    ( Oracle.Sinr_power_control (Dps_sinr.Params.make (), small),
      Graph.link_count small ) ]

let prop_greedy_set_reference =
  let rec core = function Oracle.Lossy (base, _) -> core base | o -> o in
  QCheck.Test.make ~count:100 ~name:"greedy set matches the list reference"
    QCheck.(pair small_nat (int_range 0 6))
    (fun (seed, top) ->
      let rng = Rng.create ~seed () in
      List.for_all
        (fun (oracle, m) ->
          let weights = Array.init m (fun _ -> Rng.int rng (top + 1)) in
          let channel = Channel.create ~oracle ~m () in
          Intvec.to_list (Max_weight.greedy_set channel weights)
          = Reference.greedy_set (core oracle) weights)
        greedy_oracles)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "max-weight"
    [ ( "baseline",
        [ slow "MAC stable at 0.8" test_mac_high_rate_stable;
          slow "MAC unstable beyond 1" test_mac_overload_unstable;
          quick "conservation" test_conservation;
          slow "multi-hop wireline" test_multihop_wireline;
          slow "figure-1 instance" test_figure_one_max_weight;
          quick "deterministic" test_deterministic ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_successes_bounded_by_service; prop_greedy_set_reference ] ) ]
