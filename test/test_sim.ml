(* Unit and property tests for the slotted-channel simulator: packets,
   oracles, channel semantics, trace accounting. Oracles and the channel
   are driven with lists through test/reference.ml's adapter. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Link = Dps_network.Link
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Topology = Dps_network.Topology
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Arena = Dps_sim.Packet_arena
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Trace = Dps_sim.Trace
module Lists = Reference.Lists

let sorted xs = List.sort compare xs

(* --------------------------------------------------------------- Packet *)

let line_path () =
  let g = Topology.line ~nodes:4 ~spacing:1. in
  let r = Dps_network.Routing.make g in
  Option.get (Dps_network.Routing.path r ~src:0 ~dst:3)

let test_packet_lifecycle () =
  let a = Arena.create () in
  let p = Arena.alloc a ~id:1 ~path:(line_path ()) ~injected_slot:10 in
  Alcotest.(check int) "remaining" 3 (Arena.remaining_hops a p);
  Alcotest.(check bool) "not delivered" false (Arena.delivered a p);
  Alcotest.(check int) "no latency yet" (-1) (Arena.latency a p);
  Arena.advance a p ~slot:20;
  Arena.advance a p ~slot:30;
  Alcotest.(check int) "remaining after 2" 1 (Arena.remaining_hops a p);
  Arena.advance a p ~slot:45;
  Alcotest.(check bool) "delivered" true (Arena.delivered a p);
  Alcotest.(check int) "latency" 35 (Arena.latency a p)

let test_packet_next_link_progresses () =
  let path = line_path () in
  let a = Arena.create () in
  let p = Arena.alloc a ~id:0 ~path ~injected_slot:0 in
  Alcotest.(check int) "first hop" (Path.hop path 0) (Arena.next_link a p);
  Arena.advance a p ~slot:1;
  Alcotest.(check int) "second hop" (Path.hop path 1) (Arena.next_link a p)

(* --------------------------------------------------------------- Oracle *)

let test_oracle_wireline () =
  Alcotest.(check (list int)) "everything passes" [ 0; 1; 2 ]
    (sorted (Lists.adjudicate Oracle.Wireline [ 0; 1; 2 ]))

let test_oracle_mac () =
  Alcotest.(check (list int)) "solo passes" [ 2 ]
    (Lists.adjudicate Oracle.Mac [ 2 ]);
  Alcotest.(check (list int)) "pair collides" []
    (Lists.adjudicate Oracle.Mac [ 0; 1 ]);
  Alcotest.(check (list int)) "empty" [] (Lists.adjudicate Oracle.Mac [])

let test_oracle_conflict () =
  let cg = Conflict_graph.create ~links:4 ~conflicts:[ (0, 1); (2, 3) ] in
  let o = Oracle.Conflict cg in
  Alcotest.(check (list int)) "independent set passes" [ 0; 2 ]
    (sorted (Lists.adjudicate o [ 0; 2 ]));
  Alcotest.(check (list int)) "conflicting pair dies" []
    (sorted (Lists.adjudicate o [ 0; 1 ]));
  Alcotest.(check (list int)) "mixed" [ 0 ]
    (sorted (Lists.adjudicate o [ 0; 2; 3 ]))

let test_oracle_sinr () =
  (* Figure-1 physics: short links always pass, the long link only alone. *)
  let m = 8 in
  let phys = Dps_core.Lower_bound.physics ~m in
  let o = Oracle.Sinr phys in
  let long = m - 1 in
  Alcotest.(check (list int)) "long alone passes" [ long ]
    (Lists.adjudicate o [ long ]);
  Alcotest.(check (list int)) "shorts pass, long dies" [ 0; 1; 2 ]
    (sorted (Lists.adjudicate o [ 0; 1; 2; long ]));
  Alcotest.(check (list int)) "all shorts coexist"
    (List.init (m - 1) Fun.id)
    (sorted (Lists.adjudicate o (List.init (m - 1) Fun.id)))

(* -------------------------------------------------------------- Channel *)

let test_channel_clock () =
  let ch = Channel.create ~oracle:Oracle.Wireline ~m:4 () in
  Alcotest.(check int) "starts at 0" 0 (Channel.now ch);
  ignore (Lists.step ch [ 0 ]);
  Alcotest.(check int) "advances" 1 (Channel.now ch);
  Channel.idle ch ~slots:5;
  Alcotest.(check int) "idle advances" 6 (Channel.now ch)

let test_channel_duplicate_attempts_collide () =
  let ch = Channel.create ~oracle:Oracle.Wireline ~m:4 () in
  Alcotest.(check (list int)) "duplicates fail, singleton passes" [ 1 ]
    (sorted (Lists.step ch [ 0; 0; 1 ]))

let test_channel_duplicates_still_interfere () =
  (* Two packets on one short link still jam the long link under SINR. *)
  let m = 8 in
  let phys = Dps_core.Lower_bound.physics ~m in
  let ch = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
  let long = m - 1 in
  Alcotest.(check (list int)) "long drowned by colliding short pair" []
    (Lists.step ch [ 0; 0; long ])

let test_channel_trace_accounting () =
  let ch = Channel.create ~oracle:Oracle.Mac ~m:4 () in
  ignore (Lists.step ch [ 0; 1 ]);
  ignore (Lists.step ch [ 2 ]);
  ignore (Lists.step ch []);
  let tr = Channel.trace ch in
  Alcotest.(check int) "slots" 3 (Trace.slots tr);
  Alcotest.(check int) "attempts" 3 (Trace.attempts tr);
  Alcotest.(check int) "successes" 1 (Trace.successes tr);
  Alcotest.(check int) "busy slots" 2 (Trace.busy_slots tr);
  Alcotest.(check int) "per-link successes" 1 (Trace.successes_on tr 2);
  Alcotest.(check int) "per-link attempts" 1 (Trace.attempts_on tr 0)

let test_channel_mac_throughput_cap () =
  (* The multiple-access channel serves at most one packet per slot. *)
  let ch = Channel.create ~oracle:Oracle.Mac ~m:8 () in
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 200 do
    let attempts =
      List.filter (fun _ -> Rng.bernoulli rng 0.3) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    let succ = Lists.step ch attempts in
    Alcotest.(check bool) "at most one success" true (List.length succ <= 1)
  done

(* ------------------------------------------------------------ property *)

let prop_successes_subset_of_attempts =
  QCheck.Test.make ~count:200 ~name:"successes are a subset of attempts"
    QCheck.(list (int_range 0 7))
    (fun attempts ->
      let cg =
        Conflict_graph.create ~links:8 ~conflicts:[ (0, 1); (2, 3); (4, 5) ]
      in
      let ch = Channel.create ~oracle:(Oracle.Conflict cg) ~m:8 () in
      let succ = Lists.step ch attempts in
      List.for_all (fun e -> List.mem e attempts) succ)

let prop_successes_unique =
  QCheck.Test.make ~count:200 ~name:"a link succeeds at most once per slot"
    QCheck.(list (int_range 0 7))
    (fun attempts ->
      let ch = Channel.create ~oracle:Oracle.Wireline ~m:8 () in
      let succ = Lists.step ch attempts in
      List.length succ = List.length (List.sort_uniq compare succ))

let prop_conflict_successes_independent =
  QCheck.Test.make ~count:200
    ~name:"conflict-oracle successes form an independent set"
    QCheck.(pair (list (int_range 0 9)) (list (pair (int_range 0 9) (int_range 0 9))))
    (fun (attempts, edges) ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let cg = Conflict_graph.create ~links:10 ~conflicts:edges in
      let ch = Channel.create ~oracle:(Oracle.Conflict cg) ~m:10 () in
      let succ = Lists.step ch attempts in
      Conflict_graph.independent cg succ)

let prop_sinr_successes_feasible =
  QCheck.Test.make ~count:100
    ~name:"SINR-oracle successes are SINR-feasible against all attempts"
    QCheck.(pair (int_range 0 300) (list (int_range 0 11)))
    (fun (seed, raw_attempts) ->
      let rng = Rng.create ~seed () in
      let g = Topology.random_geometric rng ~nodes:10 ~side:15. ~radius:6. in
      let m = Graph.link_count g in
      if m = 0 then true
      else begin
        let phys = Physics.make (Params.make ()) (Power.uniform 1.) g in
        let attempts = List.map (fun e -> e mod m) raw_attempts in
        let active = List.sort_uniq compare attempts in
        let ch = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
        let succ = Lists.step ch attempts in
        List.for_all (fun e -> Lists.feasible phys ~active e) succ
      end)

let prop_trace_conserves_counts =
  QCheck.Test.make ~count:100 ~name:"trace totals match per-link totals"
    QCheck.(list (list (int_range 0 5)))
    (fun slots ->
      let ch = Channel.create ~oracle:Oracle.Wireline ~m:6 () in
      List.iter (fun attempts -> ignore (Lists.step ch attempts)) slots;
      let tr = Channel.trace ch in
      let per_link_attempts =
        List.fold_left (fun acc e -> acc + Trace.attempts_on tr e) 0
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let per_link_successes =
        List.fold_left (fun acc e -> acc + Trace.successes_on tr e) 0
          [ 0; 1; 2; 3; 4; 5 ]
      in
      per_link_attempts = Trace.attempts tr
      && per_link_successes = Trace.successes tr
      && Trace.slots tr = List.length slots)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [ ( "packet",
        [ quick "lifecycle" test_packet_lifecycle;
          quick "next link progresses" test_packet_next_link_progresses ] );
      ( "oracle",
        [ quick "wireline" test_oracle_wireline;
          quick "mac" test_oracle_mac;
          quick "conflict" test_oracle_conflict;
          quick "sinr figure-1" test_oracle_sinr ] );
      ( "channel",
        [ quick "clock" test_channel_clock;
          quick "duplicate attempts collide" test_channel_duplicate_attempts_collide;
          quick "duplicates still interfere" test_channel_duplicates_still_interfere;
          quick "trace accounting" test_channel_trace_accounting;
          quick "mac throughput cap" test_channel_mac_throughput_cap ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_successes_subset_of_attempts;
            prop_successes_unique;
            prop_conflict_successes_independent;
            prop_sinr_successes_feasible;
            prop_trace_conserves_counts ] ) ]
