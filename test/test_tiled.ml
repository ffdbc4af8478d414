(* The ε-sparsified tiled interference engine against the dense path:
   - ε = 0 reproduces the dense SINR affectance matrix entry for entry;
   - a Load_tracker over the tiled measure agrees with one over the
     dense measure to 1e-9 under random update sequences on small
     geometric instances;
   - for ε > 0, the dense−sparse gap obeys the documented per-row bound
     0 ≤ gap ≤ row_error · ‖R‖∞, so a stability verdict can only flip
     inside that margin;
   - results are bit-identical in [jobs] (construction, tracker), and
     Driver.run_many on the tiled measure stays byte-identical between
     jobs=1 and jobs=4. *)

module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Load_tracker = Dps_interference.Load_tracker
module Topology = Dps_network.Topology
module Path = Dps_network.Path
module Graph = Dps_network.Graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Oracle = Dps_sim.Oracle
module Stochastic = Dps_injection.Stochastic
module Delay_select = Dps_static.Delay_select
module Telemetry = Dps_telemetry.Telemetry
module Memory_sink = Dps_telemetry.Memory_sink

let tolerance = 1e-9

(* A geometric instance the dense path can still afford: [links] disjoint
   unit links scattered at constant density, linear powers, α = 4. *)
let geo_phys ?(alpha = 4.) ~links seed =
  let rng = Rng.create ~seed () in
  let side = 4. *. sqrt (float_of_int links) in
  let g = Topology.link_cloud rng ~links ~side ~length:1. in
  Physics.make (Params.make ~alpha ~noise:1e-9 ()) (Power.linear 2.) g

let random_counts rng m = Array.init m (fun _ -> float_of_int (Rng.int rng 6))

(* --------------------------------------------- ε = 0 is exactly dense *)

let test_zero_epsilon_exact () =
  let phys = geo_phys ~links:24 7 in
  let dense = Sinr_measure.linear_power phys in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon:0. phys in
  let sparse = Tiled.as_measure tiled in
  Alcotest.(check int) "size" (Measure.size dense) (Tiled.size tiled);
  Alcotest.(check int) "nnz" (Measure.nnz dense) (Tiled.nnz tiled);
  Alcotest.(check (float 0.)) "no dropped mass" 0. (Tiled.max_row_bound tiled);
  for e = 0 to Measure.size dense - 1 do
    let got = ref [] in
    Measure.iter_row sparse e (fun e' w -> got := (e', w) :: !got);
    let expect = ref [] in
    Measure.iter_row dense e (fun e' w -> expect := (e', w) :: !expect);
    if !got <> !expect then
      Alcotest.failf "row %d differs between dense and ε=0 tiled" e
  done;
  let rng = Rng.create ~seed:11 () in
  let load = random_counts rng (Measure.size dense) in
  Alcotest.(check (float 1e-12))
    "interference" (Measure.interference dense load)
    (Measure.interference sparse load)

(* ------------------------------------ tiled tracker ≡ dense tracker *)

let arb_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 40)
      (triple small_nat small_nat (float_range 0. 2.)))

(* Mirror one op on both trackers; loads stay non-negative so the ε-bound
   direction (sparse ≤ dense) is meaningful throughout. *)
let apply_both m dense_tr tiled_tr (link, kind, c) =
  let e = link mod m in
  (match kind mod 3 with
  | 0 ->
    Load_tracker.add dense_tr e;
    Load_tracker.add tiled_tr e
  | 1 ->
    if Load_tracker.load dense_tr e >= 1. then begin
      Load_tracker.remove dense_tr e;
      Load_tracker.remove tiled_tr e
    end
  | _ ->
    Load_tracker.add_scaled dense_tr e c;
    Load_tracker.add_scaled tiled_tr e c);
  e

let prop_tracker_matches_dense =
  QCheck.Test.make ~count:120
    ~name:"tiled tracker ≡ dense Load_tracker at ε = 0 (1e-9)"
    QCheck.(pair small_nat arb_ops)
    (fun (pick, ops) ->
      let links = 6 + (pick mod 20) in
      let phys = geo_phys ~links (100 + pick) in
      let dense = Sinr_measure.linear_power phys in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon:0. phys in
      let dense_tr = Load_tracker.create dense in
      let tiled_tr = Load_tracker.create (Tiled.as_measure tiled) in
      List.for_all
        (fun op ->
          let e = apply_both links dense_tr tiled_tr op in
          Float.abs
            (Load_tracker.interference dense_tr
            -. Load_tracker.interference tiled_tr)
          <= tolerance
          && Float.abs
               (Load_tracker.interference_at dense_tr e
               -. Load_tracker.interference_at tiled_tr e)
             <= tolerance)
        ops)

let prop_tracker_reset =
  QCheck.Test.make ~count:60 ~name:"tiled tracker reset returns to zero"
    QCheck.(pair small_nat arb_ops)
    (fun (pick, ops) ->
      let links = 6 + (pick mod 20) in
      let phys = geo_phys ~links (200 + pick) in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon:0.1 phys in
      let tr = Load_tracker.create (Tiled.as_measure tiled) in
      List.iter
        (fun (l, _, c) -> Load_tracker.add_scaled tr (l mod links) c)
        ops;
      Load_tracker.reset tr;
      Load_tracker.interference tr = 0.
      && List.for_all
           (fun e -> Load_tracker.load tr e = 0.)
           (List.init links Fun.id))

(* --------------------------------------------- ε > 0 error accounting *)

(* 0 ≤ dense − sparse ≤ row_error · ‖R‖∞, per row and globally. *)
let prop_epsilon_error_bound =
  QCheck.Test.make ~count:120
    ~name:"ε-sparsification error within the recorded per-row bound"
    QCheck.(triple small_nat (float_range 0.01 0.5) small_nat)
    (fun (pick, epsilon, load_seed) ->
      let links = 8 + (pick mod 24) in
      let phys = geo_phys ~links (300 + pick) in
      let dense = Sinr_measure.linear_power phys in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
      let sparse = Tiled.as_measure tiled in
      let rng = Rng.create ~seed:(400 + load_seed) () in
      let load = random_counts rng links in
      let linf = Array.fold_left Float.max 0. load in
      let rows_ok =
        List.for_all
          (fun e ->
            let d = Measure.interference_at dense load e in
            let s = Measure.interference_at sparse load e in
            d -. s >= -.tolerance
            && d -. s <= (Measure.row_error sparse e *. linf) +. tolerance)
          (List.init links Fun.id)
      in
      let d = Measure.interference dense load in
      let s = Measure.interference sparse load in
      rows_ok
      && Tiled.max_row_bound tiled <= epsilon +. tolerance
      && d -. s >= -.tolerance
      && d -. s <= (Tiled.max_row_bound tiled *. linf) +. tolerance)

(* A stability verdict (I ≤ threshold) computed on the sparse measure can
   disagree with the dense one only when the dense value is within the
   documented margin of the threshold. *)
let prop_verdict_flip_within_bound =
  QCheck.Test.make ~count:120
    ~name:"stability verdicts flip only inside the ε margin"
    QCheck.(
      quad small_nat (float_range 0.01 0.5) small_nat (float_range 0. 1.))
    (fun (pick, epsilon, load_seed, frac) ->
      let links = 8 + (pick mod 24) in
      let phys = geo_phys ~links (500 + pick) in
      let dense = Sinr_measure.linear_power phys in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
      let rng = Rng.create ~seed:(600 + load_seed) () in
      let load = random_counts rng links in
      let linf = Array.fold_left Float.max 0. load in
      let d = Measure.interference dense load in
      let s = Measure.interference (Tiled.as_measure tiled) load in
      let threshold = frac *. (d +. 1.) in
      let margin = (Tiled.max_row_bound tiled *. linf) +. tolerance in
      let verdict v = v <= threshold in
      verdict d = verdict s || Float.abs (d -. threshold) <= margin)

(* ------------------------------------------------- jobs byte-identity *)

let bits = Int64.bits_of_float

let test_jobs_bit_identical () =
  let phys = geo_phys ~links:200 17 in
  let build jobs =
    Tiled.as_measure (Sinr_measure.linear_power_tiled ~jobs ~epsilon:0.1 phys)
  in
  let m1 = build 1 and m4 = build 4 in
  Alcotest.(check int) "construction nnz" (Measure.nnz m1) (Measure.nnz m4);
  for e = 0 to Measure.size m1 - 1 do
    let r1 = ref [] and r4 = ref [] in
    Measure.iter_row m1 e (fun e' w -> r1 := (e', bits w) :: !r1);
    Measure.iter_row m4 e (fun e' w -> r4 := (e', bits w) :: !r4);
    if !r1 <> !r4 then Alcotest.failf "row %d differs between jobs=1 and 4" e;
    Alcotest.(check (float 0.))
      (Printf.sprintf "row_error %d" e)
      (Measure.row_error m1 e) (Measure.row_error m4 e)
  done;
  let tr1 = Load_tracker.create m1 and tr4 = Load_tracker.create m1 in
  let rng = Rng.create ~seed:23 () in
  for _ = 1 to 300 do
    let e = Rng.int rng 200 in
    let c = Rng.float rng 2. in
    Load_tracker.add_scaled tr1 e c;
    Load_tracker.add_scaled tr4 e c
  done;
  Alcotest.(check int64) "tracker bits"
    (bits (Load_tracker.interference ~jobs:1 tr1))
    (bits (Load_tracker.interference ~jobs:4 tr4))

(* Driver.run_many over a tiled-derived measure: report and telemetry
   byte-identical between jobs=1 and jobs=4 (the test_par golden, on the
   tiled path). Traffic is one single-hop flow per link at equal rates. *)
let tiled_setup () =
  let phys = geo_phys ~links:12 29 in
  let g = Physics.graph phys in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon:0.1 phys in
  let measure = Tiled.as_measure tiled in
  let m = Measure.size measure in
  let rec first_feasible = function
    | [] -> Alcotest.fail "no configurable rate for the tiled golden"
    | lambda :: rest -> (
      match
        Protocol.configure ~epsilon:0.5
          ~algorithm:(Delay_select.make ~c:4. ())
          ~measure ~lambda ~max_hops:1 ()
      with
      | config -> (config, lambda)
      | exception Invalid_argument _ -> first_feasible rest)
  in
  let config, lambda = first_feasible [ 0.08; 0.04; 0.02; 0.01; 0.005 ] in
  let per = lambda /. float_of_int m in
  let inj =
    Stochastic.make (List.init m (fun i -> [ (Path.of_links g [ i ], per) ]))
  in
  (config, Oracle.Sinr phys, inj)

let test_run_many_tiled_golden () =
  let config, oracle, inj = tiled_setup () in
  let seeds = [ 41; 42; 43; 44 ] in
  let run jobs =
    let recorder = Memory_sink.create () in
    let telemetry = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let reports =
      Driver.run_many ~jobs ~telemetry ~metrics_every:2 ~config ~oracle
        ~source:(Driver.Stochastic inj) ~seeds ~frames:4 ()
    in
    (reports, recorder)
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  List.iteri
    (fun i ((a : Protocol.report), (b : Protocol.report)) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: injected" i)
        a.Protocol.injected b.Protocol.injected;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: delivered" i)
        a.Protocol.delivered b.Protocol.delivered;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: trajectory" i)
        true
        (Timeseries.to_array a.Protocol.in_system
        = Timeseries.to_array b.Protocol.in_system))
    (List.combine r1 r4);
  Alcotest.(check (list string))
    "telemetry byte-identical" (Memory_sink.event_lines m1)
    (Memory_sink.event_lines m4);
  Alcotest.(check bool)
    "snapshots byte-identical" true
    (Memory_sink.snapshots m1 = Memory_sink.snapshots m4)

let () =
  Alcotest.run "tiled"
    [ ( "unit",
        [ Alcotest.test_case "ε=0 reproduces the dense matrix" `Quick
            test_zero_epsilon_exact;
          Alcotest.test_case "bit-identical in jobs" `Quick
            test_jobs_bit_identical;
          Alcotest.test_case "run_many golden on the tiled path" `Quick
            test_run_many_tiled_golden ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tracker_matches_dense;
            prop_tracker_reset;
            prop_epsilon_error_bound;
            prop_verdict_flip_within_bound ] ) ]
