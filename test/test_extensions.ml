(* Tests for the extension surface: power control (Section 6.2 /
   Corollary 14), the radio-network model, unreliable links (Section 9),
   and the centralized measure-greedy scheduler. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Power_control = Dps_sinr.Power_control
module Sinr_measure = Dps_sinr.Sinr_measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Lists = Reference.Lists
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm
module Measure_greedy = Dps_static.Measure_greedy

(* -------------------------------------------------------- power control *)

(* Two collinear links pointing away from each other: cross-gains are
   weaker than own gains, so some power assignment works. *)
let diverging_pair () =
  let positions =
    [| Point.make 0. 0.; Point.make (-1.) 0.;  (* link 0 points left *)
       Point.make 3. 0.; Point.make 4. 0. |]  (* link 1 points right *)
  in
  Graph.create ~positions
    ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]

(* Head-to-head links: each sender is closer to the other's receiver than
   to its own; no power assignment can satisfy both at beta = 1. *)
let crossfire_pair () =
  let positions =
    [| Point.make 0. 0.; Point.make 3. 0.;  (* link 0: 0 -> 3 (length 3) *)
       Point.make 2. 0.; Point.make 1. 0. |]  (* link 1: 2 -> 1 (length 1) *)
  in
  Graph.create ~positions
    ~links:[ Link.make ~id:0 ~src:0 ~dst:1; Link.make ~id:1 ~src:2 ~dst:3 ]

let test_pc_single_link () =
  let g = diverging_pair () in
  let prm = Params.make () in
  match Power_control.min_powers prm g [ 0 ] with
  | None -> Alcotest.fail "single link must be feasible"
  | Some p -> Alcotest.(check int) "one power" 1 (Array.length p)

let test_pc_empty () =
  let g = diverging_pair () in
  Alcotest.(check bool) "empty set feasible" true
    (Power_control.feasible (Params.make ()) g [])

let test_pc_diverging_feasible () =
  let g = diverging_pair () in
  let prm = Params.make () in
  Alcotest.(check bool) "diverging pair feasible" true
    (Power_control.feasible prm g [ 0; 1 ])

let test_pc_crossfire_infeasible () =
  let g = crossfire_pair () in
  let prm = Params.make () in
  (* Link 0's receiver (at x=3) is 1 away from link 1's sender (x=2) but 3
     from its own sender; link 1's receiver (x=1) is 1 away from link 0's
     sender. M's spectral radius exceeds 1. *)
  Alcotest.(check bool) "crossfire infeasible" false
    (Power_control.feasible prm g [ 0; 1 ])

let test_pc_min_powers_satisfy_sinr () =
  let g = diverging_pair () in
  let prm = Params.make ~noise:0.001 () in
  match Power_control.min_powers prm g [ 0; 1 ] with
  | None -> Alcotest.fail "expected feasible"
  | Some p ->
    (* Check the SINR constraints directly with the returned powers. *)
    let gain to_l from_l =
      let r = Graph.position g (Graph.link g to_l).Link.dst in
      let s = Graph.position g (Graph.link g from_l).Link.src in
      1. /. (Point.distance s r ** 3.)
    in
    List.iter
      (fun (i, j) ->
        let sinr =
          p.(i) *. gain i i /. ((p.(j) *. gain i j) +. Float.max prm.Params.noise 1.)
        in
        Alcotest.(check bool) "sinr >= beta" true (sinr >= 1. -. 1e-6))
      [ (0, 1); (1, 0) ]

let test_pc_duplicates_rejected () =
  let g = diverging_pair () in
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Power_control.min_powers: duplicate links") (fun () ->
      ignore (Power_control.min_powers (Params.make ()) g [ 0; 0 ]))

let test_pc_subset_monotone () =
  (* max_feasible_subset returns a feasible subset containing the shortest
     links it can keep. *)
  let rng = Rng.create ~seed:40 () in
  let g = Topology.random_geometric rng ~nodes:14 ~side:12. ~radius:6. in
  let m = Graph.link_count g in
  if m >= 3 then begin
    let prm = Params.make () in
    let all = List.init m Fun.id in
    let kept = Power_control.max_feasible_subset prm g all in
    Alcotest.(check bool) "kept subset is feasible" true
      (kept = [] || Power_control.feasible prm g kept)
  end

let test_pc_beats_fixed_powers () =
  (* Power control serves at least everything any fixed assignment can:
     a fixed-power-feasible set is power-control feasible. *)
  let rng = Rng.create ~seed:41 () in
  let g = Topology.random_geometric rng ~nodes:16 ~side:40. ~radius:12. in
  let m = Graph.link_count g in
  if m >= 2 then begin
    let prm = Params.make ~noise:1e-9 () in
    let phys = Physics.make prm (Power.linear 1.) g in
    (* Greedy fixed-power feasible set. *)
    let fixed = ref [] in
    for e = 0 to m - 1 do
      if Physics.feasible_set phys (e :: !fixed) then fixed := e :: !fixed
    done;
    Alcotest.(check bool) "fixed-feasible implies pc-feasible" true
      (Power_control.feasible prm g !fixed)
  end

let test_pc_oracle_adjudication () =
  let g = crossfire_pair () in
  let prm = Params.make () in
  let oracle = Oracle.Sinr_power_control (prm, g) in
  (* Both attempt: the longer link (0, length 3) is dropped. *)
  Alcotest.(check (list int)) "longest dropped" [ 1 ]
    (Lists.adjudicate oracle [ 0; 1 ]);
  Alcotest.(check (list int)) "alone it passes" [ 0 ]
    (Lists.adjudicate oracle [ 0 ])

(* ---------------------------------------------------------- radio model *)

let test_radio_conflicts () =
  (* Line 0-1-2: transmissions into node 1 from both sides conflict; links
     into different, non-adjacent receivers do not. *)
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let cg = Conflict_graph.radio_model g in
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let l21 = Option.get (Graph.find_link g ~src:2 ~dst:1) in
  Alcotest.(check bool) "two senders into node 1 conflict" true
    (Conflict_graph.conflict cg l01 l21);
  let l10 = Option.get (Graph.find_link g ~src:1 ~dst:0) in
  let l23 = Option.get (Graph.find_link g ~src:2 ~dst:3) in
  Alcotest.(check bool) "1->0 vs 2->3 are independent" false
    (Conflict_graph.conflict cg l10 l23)

let test_radio_hidden_terminal () =
  (* The hidden-terminal pattern: sender 2 is a neighbour of receiver 1 of
     link 0->1, so 2->3 jams 0->1 ... only if there is a link 2->1 in g.
     On a line, 2 is adjacent to 1, so 2->3 conflicts with 0->1. *)
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let cg = Conflict_graph.radio_model g in
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let l23 = Option.get (Graph.find_link g ~src:2 ~dst:3) in
  Alcotest.(check bool) "hidden terminal conflict" true
    (Conflict_graph.conflict cg l01 l23)

let test_radio_shared_sender () =
  let g = Topology.star ~leaves:3 ~radius:1. in
  let cg = Conflict_graph.radio_model g in
  let a = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let b = Option.get (Graph.find_link g ~src:0 ~dst:2) in
  Alcotest.(check bool) "same sender conflicts" true
    (Conflict_graph.conflict cg a b)

(* ---------------------------------------------------------- lossy links *)

let test_lossy_requires_rng () =
  let oracle = Oracle.Lossy (Oracle.Wireline, 0.5) in
  Alcotest.check_raises "needs rng"
    (Invalid_argument "Oracle.adjudicate: Lossy oracle needs an rng")
    (fun () -> ignore (Lists.adjudicate oracle [ 0 ]))

let test_lossy_rejects_bad_probability () =
  let rng = Rng.create ~seed:41 () in
  List.iter
    (fun loss ->
      Alcotest.check_raises
        (Printf.sprintf "loss %g rejected" loss)
        (Invalid_argument "Oracle.adjudicate: Lossy probability outside [0, 1]")
        (fun () ->
          ignore
            (Lists.adjudicate ~rng (Oracle.Lossy (Oracle.Wireline, loss))
               [ 0 ])))
    [ -0.1; 1.5; Float.nan ]

let test_lossy_extremes () =
  let rng = Rng.create ~seed:42 () in
  Alcotest.(check (list int)) "loss 0 = base" [ 0; 1 ]
    (List.sort compare
       (Lists.adjudicate ~rng (Oracle.Lossy (Oracle.Wireline, 0.)) [ 0; 1 ]));
  Alcotest.(check (list int)) "loss 1 = nothing" []
    (Lists.adjudicate ~rng (Oracle.Lossy (Oracle.Wireline, 1.)) [ 0; 1 ])

let test_lossy_rate () =
  let rng = Rng.create ~seed:43 () in
  let oracle = Oracle.Lossy (Oracle.Wireline, 0.3) in
  let channel = Channel.create ~rng ~oracle ~m:4 () in
  let delivered = ref 0 in
  let slots = 20_000 in
  for _ = 1 to slots do
    delivered := !delivered + List.length (Lists.step channel [ 0 ])
  done;
  let rate = float_of_int !delivered /. float_of_int slots in
  Alcotest.(check bool) "≈ 0.7 get through" true (rate > 0.67 && rate < 0.73)

let test_lossy_composes () =
  let rng = Rng.create ~seed:44 () in
  (* Lossy over MAC: a colliding pair still yields nothing. *)
  let oracle = Oracle.Lossy (Oracle.Mac, 0.) in
  Alcotest.(check (list int)) "base rule preserved" []
    (Lists.adjudicate ~rng oracle [ 0; 1 ])

let test_lossy_protocol_stays_stable () =
  (* Section 9's "trivial extension": with loss probability p, scheduling
     still works — it only stretches effective schedule lengths by
     1/(1-p). Run the wireline protocol at a low rate under 10% loss. *)
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let m = Graph.link_count g in
  let r = Dps_network.Routing.make g in
  let path = Option.get (Dps_network.Routing.path r ~src:0 ~dst:4) in
  let measure = Measure.identity m in
  (* Oneshot retries are handled by the clean-up phase; keep the rate low
     and raise the cleanup probability so lost packets recover quickly. *)
  let cfg =
    Dps_core.Protocol.configure ~cleanup_prob:0.5
      ~algorithm:Dps_static.Oneshot.algorithm ~measure ~lambda:0.3 ~max_hops:4
      ()
  in
  let rng = Rng.create ~seed:45 () in
  (* Near capacity so the loss actually produces phase-1 failures: per-link
     load ~0.2·T against a ~0.45·T budget, 40% of transmissions lost. *)
  let inj = Dps_injection.Stochastic.make [ [ (path, 0.2) ] ] in
  let report =
    Dps_core.Driver.run ~config:cfg
      ~oracle:(Oracle.Lossy (Oracle.Wireline, 0.35))
      ~source:(Dps_core.Driver.Stochastic inj) ~frames:300 ~rng
  in
  Alcotest.(check bool) "loss causes some failures" true
    (report.Dps_core.Protocol.failed_events > 0);
  match Dps_core.Stability.assess report.Dps_core.Protocol.in_system with
  | Dps_core.Stability.Unstable -> Alcotest.fail "should stay stable under 35% loss"
  | _ -> ()

(* -------------------------------------------------------- measure greedy *)

let test_greedy_wireline_serves_all () =
  let m = 4 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create () in
  let requests = Array.init 20 (fun k -> Request.make ~link:(k mod m) ~key:k) in
  let algo = Measure_greedy.make ~priority:float_of_int () in
  let outcome =
    Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m) ~requests
  in
  Alcotest.(check bool) "all served" true (Algorithm.all_served outcome);
  (* Identity measure: rounds hold one packet per link, so congestion slots. *)
  Alcotest.(check int) "slots = congestion" 5 outcome.Algorithm.slots_used

let test_greedy_deterministic () =
  let run () =
    let m = 5 in
    let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
    let rng = Rng.create ~seed:50 () in
    let requests = Array.init 23 (fun k -> Request.make ~link:(k * 3 mod m) ~key:k) in
    let algo = Measure_greedy.make ~priority:(fun e -> float_of_int (m - e)) () in
    (Algorithm.execute algo ~channel ~rng ~measure:(Measure.identity m) ~requests)
      .Algorithm.slots_used
  in
  Alcotest.(check int) "same schedule" (run ()) (run ())

let test_greedy_power_control_end_to_end () =
  (* The Corollary 14 pipeline: Section 6.2 measure + length priority +
     power-control oracle. *)
  let rng = Rng.create ~seed:51 () in
  let g = Topology.random_geometric rng ~nodes:14 ~side:40. ~radius:14. in
  let m = Graph.link_count g in
  if m >= 4 then begin
    let prm = Params.make ~noise:1e-9 () in
    let phys = Physics.make prm (Power.uniform 1.) g in
    let measure = Sinr_measure.power_control phys in
    let channel = Channel.create ~oracle:(Oracle.Sinr_power_control (prm, g)) ~m () in
    let requests = Array.init (2 * m) (fun k -> Request.make ~link:(k mod m) ~key:k) in
    let algo =
      Measure_greedy.make ~budget:0.3 ~priority:(Graph.link_length g) ()
    in
    let outcome = Algorithm.execute algo ~channel ~rng ~measure ~requests in
    Alcotest.(check bool) "served most requests" true
      (Algorithm.served_count outcome > (2 * m * 3) / 4)
  end

let test_greedy_respects_budget () =
  let m = 3 in
  let channel = Channel.create ~oracle:Oracle.Wireline ~m () in
  let rng = Rng.create () in
  let requests = Array.init 30 (fun k -> Request.make ~link:0 ~key:k) in
  let algo = Measure_greedy.make ~priority:float_of_int () in
  let outcome =
    algo.Algorithm.run ~channel ~rng ~measure:(Measure.identity m) ~requests
      ~budget:7
  in
  Alcotest.(check bool) "within budget" true (outcome.Algorithm.slots_used <= 7)

(* ------------------------------------------------------------ property *)

let prop_pc_fixed_feasible_subsets =
  QCheck.Test.make ~count:40
    ~name:"any uniform-power feasible pair is power-control feasible"
    QCheck.(int_range 0 400)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let g = Topology.random_geometric rng ~nodes:10 ~side:25. ~radius:10. in
      let m = Graph.link_count g in
      if m < 2 then true
      else begin
        let prm = Params.make () in
        let phys = Physics.make prm (Power.uniform 1.) g in
        let a = Rng.int rng m and b = Rng.int rng m in
        if a = b then true
        else begin
          (* Strict feasibility: pairs sitting exactly on the SINR = beta
             boundary (e.g. sharing a sender) have rho(M) = 1 and are
             legitimately power-control infeasible. *)
          let strict =
            Lists.sinr phys ~active:[ a; b ] a > 1. +. 1e-6
            && Lists.sinr phys ~active:[ a; b ] b > 1. +. 1e-6
          in
          if strict then Power_control.feasible prm g [ a; b ] else true
        end
      end)

let prop_pc_oracle_returns_feasible =
  QCheck.Test.make ~count:40
    ~name:"power-control oracle's grant is always feasible"
    QCheck.(pair (int_range 0 400) (list (int_range 0 30)))
    (fun (seed, raw) ->
      let rng = Rng.create ~seed () in
      let g = Topology.random_geometric rng ~nodes:10 ~side:25. ~radius:10. in
      let m = Graph.link_count g in
      if m = 0 then true
      else begin
        let prm = Params.make () in
        let attempts = List.sort_uniq compare (List.map (fun e -> e mod m) raw) in
        let granted =
          Lists.adjudicate (Oracle.Sinr_power_control (prm, g)) attempts
        in
        granted = [] || Power_control.feasible prm g granted
      end)

let prop_lossy_subset_of_base =
  QCheck.Test.make ~count:100 ~name:"lossy successes are a subset of base's"
    QCheck.(pair (int_range 0 1000) (list (int_range 0 5)))
    (fun (seed, attempts) ->
      let rng = Rng.create ~seed () in
      let base = Oracle.Wireline in
      let lossy = Oracle.Lossy (base, 0.5) in
      let successes = Lists.adjudicate ~rng lossy attempts in
      List.for_all (fun e -> List.mem e attempts) successes)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [ ( "power-control",
        [ quick "single link" test_pc_single_link;
          quick "empty set" test_pc_empty;
          quick "diverging pair feasible" test_pc_diverging_feasible;
          quick "crossfire infeasible" test_pc_crossfire_infeasible;
          quick "min powers satisfy SINR" test_pc_min_powers_satisfy_sinr;
          quick "duplicates rejected" test_pc_duplicates_rejected;
          quick "max feasible subset" test_pc_subset_monotone;
          quick "dominates fixed powers" test_pc_beats_fixed_powers;
          quick "oracle adjudication" test_pc_oracle_adjudication ] );
      ( "radio-model",
        [ quick "receiver conflicts" test_radio_conflicts;
          quick "hidden terminal" test_radio_hidden_terminal;
          quick "shared sender" test_radio_shared_sender ] );
      ( "lossy",
        [ quick "requires rng" test_lossy_requires_rng;
          quick "rejects bad probability" test_lossy_rejects_bad_probability;
          quick "extremes" test_lossy_extremes;
          quick "empirical rate" test_lossy_rate;
          quick "composes with base rule" test_lossy_composes;
          Alcotest.test_case "protocol stable under loss" `Slow
            test_lossy_protocol_stays_stable ] );
      ( "measure-greedy",
        [ quick "wireline serves all" test_greedy_wireline_serves_all;
          quick "deterministic" test_greedy_deterministic;
          quick "power-control end to end" test_greedy_power_control_end_to_end;
          quick "respects budget" test_greedy_respects_budget ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pc_fixed_feasible_subsets;
            prop_pc_oracle_returns_feasible;
            prop_lossy_subset_of_base ] ) ]
