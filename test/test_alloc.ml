(* Allocation pins for the hot loop (ISSUE P5 tentpole): the steady-state
   slot loop must not allocate minor words.

   Measurement notes. [Gc.minor_words ()] itself returns a boxed float, so
   the first sample's box is counted by the second sample; [overhead]
   calibrates that constant and every strict-zero check compares against
   it exactly — these are counters, not timers, so there is no noise and
   the checks are equalities, not tolerances.

   The protocol-level pin uses a slope trick: two identical empty-steady-
   state protocols differing ONLY in frame length T run the same number
   of frames. Per-frame constants (the frame-stats boxes) cancel in the
   difference, so delta(T2) - delta(T1) = frames * (T2 - T1) * per_slot
   — requiring equality proves per_slot = 0 words exactly. Warmups run
   each Timeseries past its next capacity doubling so no growth lands in
   the measured window. *)

module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module M = Dps_interference.Measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Protocol = Dps_core.Protocol
module Conflict_graph = Dps_interference.Conflict_graph
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm

let overhead =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let measure f =
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  b -. a -. overhead

let check_zero name f = Alcotest.(check (float 0.)) name 0. (measure f)

(* ------------------------------------------------------- channel slots *)

let test_idle_slots () =
  let channel = Channel.create ~oracle:Oracle.Wireline ~m:8 () in
  Channel.idle channel ~slots:100;
  check_zero "10k idle wireline slots" (fun () ->
      Channel.idle channel ~slots:10_000)

let busy_loop channel attempts =
  for _ = 1 to 10_000 do
    ignore (Channel.step channel attempts)
  done

let test_busy_slots_wireline () =
  let channel = Channel.create ~oracle:Oracle.Wireline ~m:8 () in
  let attempts = Intvec.of_list [ 3; 1; 5 ] in
  busy_loop channel attempts;
  check_zero "10k busy wireline slots" (fun () -> busy_loop channel attempts)

let test_busy_slots_mac () =
  let channel = Channel.create ~oracle:Oracle.Mac ~m:4 () in
  let solo = Intvec.of_list [ 2 ] in
  let pair = Intvec.of_list [ 0; 1 ] in
  busy_loop channel solo;
  busy_loop channel pair;
  check_zero "10k solo mac slots" (fun () -> busy_loop channel solo);
  check_zero "10k colliding mac slots" (fun () -> busy_loop channel pair)

(* A distance-2 conflict grid and its smallest-last measure. *)
let conflict_grid ~side =
  let cg =
    Conflict_graph.distance2
      (Dps_network.Topology.grid ~rows:side ~cols:side ~spacing:10.)
  in
  (cg, Conflict_graph.to_measure cg ~order:(Conflict_graph.degeneracy_order cg))

(* The Conflict rule reads the channel's marks of the active set, one
   pass over each attempting link's conflicts: a busy slot allocates
   nothing however many links attempt. 24 links of a distance-2 grid
   attempt, some winning and some blocked. *)
let test_busy_slots_conflict () =
  let cg, _ = conflict_grid ~side:10 in
  let m = Conflict_graph.size cg in
  let channel = Channel.create ~oracle:(Oracle.Conflict cg) ~m () in
  let attempts = Intvec.of_list (List.init 24 (fun i -> i * 23 mod m)) in
  let won = Intvec.length (Channel.step channel attempts) in
  if won = 0 || won = 24 then
    Alcotest.failf "fixture must mix winners and losers: %d of 24 won" won;
  busy_loop channel attempts;
  check_zero "10k busy conflict slots" (fun () -> busy_loop channel attempts)

(* ------------------------------------------------- protocol slot loop *)

(* Empty steady state: configured protocol, no arrivals — every slot runs
   the frame machinery (phase 1, clean-up offers, idle channel, frame
   stats) with nothing in flight. This is the regime the tentpole pins at
   strictly zero words per slot; busy regimes add only per-frame request
   batches, which the slope construction cancels anyway. *)
let frame_delta ?measure:measure_w ~oracle ~algorithm ~lambda ~m ~frame
    ~frames () =
  let measure_w = Option.value ~default:(M.identity m) measure_w in
  let config =
    Protocol.configure_with_frame ~algorithm ~measure:measure_w ~lambda
      ~max_hops:4 ~frame ()
  in
  let channel = Channel.create ~oracle ~m () in
  let protocol = Protocol.create config ~channel in
  let rng = Rng.create ~seed:99 () in
  let inject_slot _ = [] in
  (* Warmup past the Timeseries doubling at len 64 (initial capacity):
     70 warmup + 50 measured frames stay below the next boundary, 128. *)
  for _ = 1 to 70 do
    Protocol.run_frame protocol rng ~inject_slot
  done;
  measure (fun () ->
      for _ = 1 to frames do
        Protocol.run_frame protocol rng ~inject_slot
      done)

let slope_pin ?measure:measure_w ?(m = 8) name ~oracle ~algorithm ~lambda ~t1
    =
  let frames = 50 in
  let d1 =
    frame_delta ?measure:measure_w ~oracle ~algorithm ~lambda ~m ~frame:t1
      ~frames ()
  in
  let d2 =
    frame_delta ?measure:measure_w ~oracle ~algorithm ~lambda ~m
      ~frame:(t1 + 512) ~frames ()
  in
  (* 512 extra slots per frame for 50 frames contributed nothing. *)
  Alcotest.(check (float 0.)) (name ^ ": zero words per slot") 0. (d2 -. d1);
  (* And the per-frame constant itself is pinned: at most 16 words per
     frame for the stats boxes (currently ~4; headroom for compiler
     variation, not for new per-frame work). *)
  if d1 > float_of_int (16 * frames) then
    Alcotest.failf "%s: per-frame budget blown: %.0f words over %d frames"
      name d1 frames

let test_run_frame_wireline () =
  slope_pin "wireline/oneshot" ~oracle:Oracle.Wireline
    ~algorithm:Dps_static.Oneshot.algorithm ~lambda:0.1 ~t1:64

(* Decay's duration bound has a Θ(log² n) stage-2 floor that no 64-slot
   frame fits; λ = 0.01 and a 576-slot base frame keep both lengths of
   the slope construction feasible. *)
let test_run_frame_decay () =
  slope_pin "mac/decay" ~oracle:Oracle.Mac
    ~algorithm:(Dps_mac.Decay.make ~delta:0.3 ()) ~lambda:0.01 ~t1:576

let test_run_frame_contention () =
  let cg, measure = conflict_grid ~side:3 in
  slope_pin "conflict/contention" ~measure ~m:(Conflict_graph.size cg)
    ~oracle:(Oracle.Conflict cg) ~algorithm:Dps_static.Contention.theorem_19
    ~lambda:0.001 ~t1:1024

let test_run_frame_round_robin () =
  slope_pin "mac/round-robin" ~measure:(Dps_mac.Mac_measure.make ~m:8)
    ~oracle:Oracle.Mac ~algorithm:Dps_mac.Round_robin.algorithm ~lambda:0.1
    ~t1:64

(* ------------------------------------------------- busy runs *)

(* A run's words, measured on a warm channel: the first run grows the
   scratch vectors and creates the cached tracker. *)
let run_words algorithm ~channel ~seed ~measure:w ~requests ~budget =
  let run rng =
    algorithm.Algorithm.run ~channel ~rng ~measure:w ~requests ~budget
  in
  ignore (run (Rng.create ~seed ()));
  let rng = Rng.create ~seed () in
  let slots = ref 0 in
  let words = measure (fun () -> slots := (run rng).Algorithm.slots_used) in
  (words, !slots)

(* Round-robin keeps each station's FIFO in the channel's scratch: a run
   allocates its [served] array and outcome (n + 4 words) and nothing
   per slot, busy or silent. *)
let test_round_robin_run () =
  let m = 8 and n = 200 in
  let channel = Channel.create ~oracle:Oracle.Mac ~m () in
  let requests = Array.init n (fun k -> Request.make ~link:(k * 5 mod 7) ~key:k) in
  let words, slots =
    run_words Dps_mac.Round_robin.algorithm ~channel ~seed:1
      ~measure:(Dps_mac.Mac_measure.make ~m) ~requests ~budget:(n + m)
  in
  Alcotest.(check int) "n + m slots" (n + m) slots;
  Alcotest.(check (float 0.)) "served array and outcome" (float_of_int (n + 4))
    words

(* Contention on a distance-2 conflict channel: a run allocates its
   [served] array and outcome (n + 4 words) and the boxed measure and
   transmission probability (2 words each), and per slot only the
   2-word box of each Bernoulli draw's [Random.State.float] (dev build).
   The draw count comes from the list reference. *)
let test_contention_run () =
  let cg, measure = conflict_grid ~side:6 in
  let m = Conflict_graph.size cg and n = 200 in
  let requests = Array.init n (fun k -> Request.make ~link:(k * 7 mod m) ~key:k) in
  let algorithm = Dps_static.Contention.theorem_19 in
  let oracle = Oracle.Conflict cg in
  let budget =
    algorithm.Algorithm.duration ~m ~i:(Request.measure_of ~measure requests) ~n
  in
  let words, slots =
    run_words algorithm ~channel:(Channel.create ~oracle ~m ()) ~seed:2
      ~measure ~requests ~budget
  in
  let draws = ref 0 in
  let reference =
    Reference.contention ~draws ~c:4. ~adaptive:false
      ~channel:(Channel.create ~oracle ~m ()) ~rng:(Rng.create ~seed:2 ())
      ~measure ~requests ~budget ()
  in
  Alcotest.(check int) "slots as the reference" reference.Algorithm.slots_used
    slots;
  if slots < 100 then Alcotest.failf "fixture too small: %d slots" slots;
  Alcotest.(check (float 0.)) "per-run words + 2 per draw"
    (float_of_int (n + 8 + (2 * !draws)))
    words

(* ------------------------------------------------- sparse hot path *)

(* The tiled measure must obey the same budget as the dense pins above:
   it differs only in how its columns are built, which the allocator may
   not see either. Same slope construction, on a small link cloud with
   the real SINR oracle. *)
let sparse_fixture () =
  let rng = Rng.create ~seed:5 () in
  let g =
    Dps_network.Topology.link_cloud rng ~links:8 ~side:12. ~length:1.
  in
  let phys =
    Dps_sinr.Physics.make
      (Dps_sinr.Params.make ~alpha:4. ~noise:1e-9 ())
      (Dps_sinr.Power.linear 2.) g
  in
  (Dps_sinr.Sinr_measure.linear_power_tiled ~epsilon:0.1 phys, phys)

let test_run_frame_sparse () =
  let tiled, phys = sparse_fixture () in
  let measure = Dps_interference.Tiled.as_measure tiled in
  slope_pin "sinr/oneshot sparse" ~measure ~oracle:(Oracle.Sinr phys)
    ~algorithm:Dps_static.Oneshot.algorithm ~lambda:0.1 ~t1:64

(* Steady-state tracker traffic: adds/removes on already-touched links
   plus the stale-rescan interference query. With only link 3 loaded the
   cached argmax is a row of column 3, so taking one packet off link 3
   lowers it and the next query rescans the touched rows (and answers
   1, the diagonal). The tracker reads the measure's kept column views
   directly, so neither column source allocates a word beyond the
   query's boxed float result. *)
let test_sparse_tracker_ops () =
  let module Load_tracker = Dps_interference.Load_tracker in
  let module Tiled = Dps_interference.Tiled in
  let tiled, phys = sparse_fixture () in
  let rounds name w =
    let tr = Load_tracker.create w in
    let queries = 10_000 in
    let ops () =
      for _ = 1 to queries do
        Load_tracker.add_count tr 3 2;
        Load_tracker.remove tr 3;
        ignore (Sys.opaque_identity (Load_tracker.interference tr));
        Load_tracker.add tr 5;
        Load_tracker.add_scaled tr 5 (-1.);
        Load_tracker.reset tr
      done
    in
    ops ();
    (* a float returned across the module boundary is a 2-word box *)
    Alcotest.(check (float 0.)) (name ^ ": 10k tracker rounds") 0.
      (measure ops -. float_of_int (2 * queries))
  in
  rounds "dense" (Dps_sinr.Sinr_measure.linear_power phys);
  rounds "tiled" (Tiled.as_measure tiled)

(* The whole-vector query (calibration, [Protocol.configure]) sums each
   row in place: a query allocates its boxed result and nothing per row,
   whichever constructor built the measure. *)
let test_interference_query () =
  let module Conflict_graph = Dps_interference.Conflict_graph in
  let tiled, _ = sparse_fixture () in
  let cg =
    Conflict_graph.distance2
      (Dps_network.Topology.grid ~rows:6 ~cols:6 ~spacing:10.)
  in
  let queries = 1_000 in
  List.iter
    (fun (name, w) ->
      let load = Array.init (M.size w) (fun e -> float_of_int (e mod 3)) in
      let ops () =
        for _ = 1 to queries do
          ignore (Sys.opaque_identity (M.interference w load))
        done
      in
      ops ();
      Alcotest.(check (float 0.)) (name ^ ": 1k queries") 0.
        (measure ops -. float_of_int (2 * queries)))
    [ ("identity", M.identity 2000);
      ( "conflict graph",
        Conflict_graph.to_measure cg ~order:(Conflict_graph.degeneracy_order cg)
      );
      ("tiled", Dps_interference.Tiled.as_measure tiled) ]

(* SINR adjudication reads the flat physics arrays in place. *)
let test_busy_slots_sinr () =
  let _, phys = sparse_fixture () in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m:8 () in
  let attempts = Intvec.of_list [ 6; 1; 4; 3 ] in
  busy_loop channel attempts;
  check_zero "10k busy sinr slots" (fun () -> busy_loop channel attempts)

(* A delay-select run over the sparse measure on the SINR channel: its
   rounds evaluate the live interference through the cached tracker and
   bucket the draws in scratch, so a run allocates its [served] array and
   outcome (n + 4 words) plus the boxed interference of each round (2
   words), and nothing per slot. Every round spends at least
   [window_floor] = 8 slots unless the budget ends it. *)
let test_delay_select_round () =
  let module Request = Dps_static.Request in
  let module Algorithm = Dps_static.Algorithm in
  let tiled, phys = sparse_fixture () in
  let sparse = Dps_interference.Tiled.as_measure tiled in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m:8 () in
  let rng = Rng.create ~seed:3 () in
  let n = 200 in
  let requests = Array.init n (fun k -> Request.make ~link:(k mod 8) ~key:k) in
  let algo = Dps_static.Delay_select.make ~c:4. () in
  let run () =
    algo.Algorithm.run ~channel ~rng ~measure:sparse ~requests ~budget:2000
  in
  ignore (run ());
  let slots = ref 0 in
  let words = measure (fun () -> slots := (run ()).Algorithm.slots_used) in
  let rounds_max = (!slots / 8) + 1 in
  if !slots < 100 then Alcotest.failf "fixture too small: %d slots" !slots;
  if words > float_of_int (n + 4 + (2 * rounds_max)) then
    Alcotest.failf "delay-select run allocated %.0f words over %d slots (n = %d)"
      words !slots n

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "alloc"
    [ ( "channel",
        [ quick "idle slots allocate nothing" test_idle_slots;
          quick "busy wireline slots allocate nothing" test_busy_slots_wireline;
          quick "busy mac slots allocate nothing" test_busy_slots_mac;
          quick "busy sinr slots allocate nothing" test_busy_slots_sinr;
          quick "busy conflict slots allocate nothing" test_busy_slots_conflict ] );
      ( "protocol",
        [ quick "run_frame slope pin (wireline/oneshot)" test_run_frame_wireline;
          quick "run_frame slope pin (mac/decay)" test_run_frame_decay;
          quick "run_frame slope pin (conflict/contention)"
            test_run_frame_contention;
          quick "run_frame slope pin (mac/round-robin)"
            test_run_frame_round_robin ] );
      ( "runs",
        [ quick "a round-robin run allocates per run only" test_round_robin_run;
          quick "a contention run allocates per run and per draw only"
            test_contention_run ] );
      ( "sparse",
        [ quick "run_frame slope pin (sinr/oneshot, tiled measure)"
            test_run_frame_sparse;
          quick "tracker ops on either column source allocate nothing"
            test_sparse_tracker_ops;
          quick "whole-vector interference allocates only its result"
            test_interference_query;
          quick "delay-select rounds allocate nothing per slot"
            test_delay_select_round ] ) ]
