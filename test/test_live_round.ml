(* The live-support delay-select round, pinned bit for bit against what
   it replaced:
   - [Request.measure_of_live] equals [Request.measure_of] on the same
     requests, on the dense, exact tiled and ε-sparsified tiled measures;
   - the tiled engine's on-demand columns hold exactly its row entries;
   - SINR, conflict and lossy adjudication equal the list rules of
     test/reference.ml;
   - [Delay_select] equals the list implementation in test/reference.ml:
     same served set, slots, channel trace and rng stream;
   - [Intvec.sort] sorts. *)

module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Channel = Dps_sim.Channel
module Oracle = Dps_sim.Oracle
module Trace = Dps_sim.Trace
module Scratch = Dps_sim.Scratch
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm
module Delay_select = Dps_static.Delay_select

let bits = Int64.bits_of_float

let cloud ~links seed =
  let rng = Rng.create ~seed () in
  let g =
    Dps_network.Topology.link_cloud rng ~links
      ~side:(3. *. sqrt (float_of_int links))
      ~length:1.
  in
  Physics.make
    (Dps_sinr.Params.make ~alpha:4. ~noise:1e-9 ())
    (Dps_sinr.Power.linear 2.) g

let links = 120
let phys = cloud ~links 11

let measures =
  [ ("dense", Sinr_measure.linear_power phys);
    ("tiled eps=0", Tiled.as_measure (Sinr_measure.linear_power_tiled ~epsilon:0. phys));
    ("tiled eps=0.1", Tiled.as_measure (Sinr_measure.linear_power_tiled ~epsilon:0.1 phys)) ]

let random_requests rng ~n ~support =
  let hot = Array.init support (fun _ -> Rng.int rng links) in
  Array.init n (fun k -> Request.make ~link:hot.(Rng.int rng support) ~key:k)

(* ------------------------------------------------------ live measure *)

let prop_measure_of_live =
  QCheck.Test.make ~count:100 ~name:"measure_of_live is measure_of, bit for bit"
    QCheck.(triple small_nat (int_range 1 200) (int_range 1 40))
    (fun (seed, n, support) ->
      let rng = Rng.create ~seed () in
      let reqs = random_requests rng ~n ~support in
      let live = Intvec.create () in
      Array.iteri (fun i _ -> if Rng.bool rng then Intvec.push live i) reqs;
      let sub = Array.map (fun i -> reqs.(i)) (Array.of_list (Intvec.to_list live)) in
      let s = Scratch.create ~m:links () in
      List.for_all
        (fun (_, measure) ->
          let got = Request.measure_of_live s ~measure reqs live in
          bits got = bits (Request.measure_of ~measure sub)
          (* the borrowed scratch comes back clean *)
          && Array.for_all not s.Scratch.flags
          && bits (Request.measure_of_live s ~measure reqs live) = bits got)
        measures)

(* ---------------------------------------------------- on-demand columns *)

(* A plane wide enough that the near window is a small part of it. *)
let wide = Sinr_measure.linear_power_tiled ~epsilon:0.1 (cloud ~links:3000 12)
let wide_measure = Tiled.as_measure wide

(* What the on-demand columns rest on: a row stores only columns within
   [near] tiles of its own tile. *)
let test_window_is_local () =
  let tiling = Tiled.tiling wide in
  let near = Tiled.near_radius wide in
  Alcotest.(check bool) "near window narrower than the grid" true
    (2 * (near + 1) < Dps_geometry.Tiling.nx tiling);
  let tile = Dps_geometry.Tiling.tile_of tiling in
  for e = 0 to Tiled.size wide - 1 do
    Measure.iter_row wide_measure e (fun e' _ ->
        if Dps_geometry.Tiling.chebyshev tiling (tile e) (tile e') > near then
          Alcotest.failf "row %d stores column %d beyond the near window" e e')
  done

(* Columns built on demand hold exactly the row entries naming them, and
   a second request returns the cached column itself. *)
let test_columns () =
  let m = Tiled.size wide in
  let expect = Array.make m [] in
  for e = m - 1 downto 0 do
    Measure.iter_row wide_measure e (fun e' w ->
        expect.(e') <- (e, w) :: expect.(e'))
  done;
  for e' = 0 to m - 1 do
    let c = Measure.column wide_measure e' in
    let got = List.init (c.Measure.hi - c.Measure.lo) (fun i ->
        (c.Measure.rows.(c.Measure.lo + i), c.Measure.weights.(c.Measure.lo + i)))
    in
    if got <> expect.(e') then Alcotest.failf "column %d differs" e';
    if Measure.column wide_measure e' != c then
      Alcotest.failf "column %d rebuilt" e'
  done

(* ------------------------------------------------- vector adjudication *)

let prop_vector_sinr =
  QCheck.Test.make ~count:200 ~name:"vector SINR and lossy adjudication are the list rules"
    QCheck.(pair small_nat (int_range 1 30))
    (fun (seed, k) ->
      let rng = Rng.create ~seed () in
      let active = Intvec.create () in
      let seen = Array.make links false in
      for _ = 1 to k do
        let e = Rng.int rng links in
        if not seen.(e) then begin
          seen.(e) <- true;
          Intvec.push active e
        end
      done;
      (* the rules see the active set back to front *)
      let listed = List.rev (Intvec.to_list active) in
      let marks = Array.map Bool.to_int seen in
      let winners = Intvec.create () in
      let same oracle =
        let r1 = Rng.create ~seed () and r2 = Rng.create ~seed () in
        Oracle.adjudicate ~rng:r1 oracle ~active ~marks ~winners;
        Intvec.to_list winners = Reference.Rules.adjudicate ~rng:r2 oracle listed
        && Rng.int r1 1_000_000 = Rng.int r2 1_000_000
      in
      List.for_all
        (fun e ->
          bits (Physics.sinr phys ~active e)
          = bits (Reference.Rules.sinr phys ~active:listed e)
          && Physics.feasible phys ~active e
             = Reference.Rules.feasible phys ~active:listed e)
        listed
      && same (Oracle.Sinr phys)
      && same (Oracle.Lossy (Oracle.Sinr phys, 0.3))
      && same (Oracle.Lossy (Oracle.Lossy (Oracle.Wireline, 0.2), 0.5)))

(* The Conflict rule reads the marked active set instead of testing
   every ordered pair of attempting links; winners and their order are
   those of the list rule, alone and under Lossy. *)
let prop_vector_conflict =
  QCheck.Test.make ~count:200 ~name:"vector conflict adjudication is the list rule"
    QCheck.(triple small_nat (int_range 1 30) (int_range 0 400))
    (fun (seed, k, pairs) ->
      let rng = Rng.create ~seed () in
      let cg =
        Dps_interference.Conflict_graph.create ~links
          ~conflicts:(List.init pairs (fun _ -> (Rng.int rng links, Rng.int rng links)))
      in
      let active = Intvec.create () and marks = Array.make links 0 in
      for _ = 1 to k do
        let e = Rng.int rng links in
        if marks.(e) = 0 then Intvec.push active e;
        marks.(e) <- marks.(e) + 1
      done;
      let listed = List.rev (Intvec.to_list active) in
      let winners = Intvec.create () in
      let same oracle =
        let r1 = Rng.create ~seed () and r2 = Rng.create ~seed () in
        Oracle.adjudicate ~rng:r1 oracle ~active ~marks ~winners;
        Intvec.to_list winners = Reference.Rules.adjudicate ~rng:r2 oracle listed
        && Rng.int r1 1_000_000 = Rng.int r2 1_000_000
      in
      same (Oracle.Conflict cg) && same (Oracle.Lossy (Oracle.Conflict cg, 0.3)))

(* ----------------------------------------------- delay-select reference *)

let prop_delay_select_reference =
  QCheck.Test.make ~count:40 ~name:"delay-select matches the list reference"
    QCheck.(triple small_nat (int_range 0 300) (int_range 1 60))
    (fun (seed, n, support) ->
      let reqs = random_requests (Rng.create ~seed ()) ~n ~support in
      let algo = Delay_select.make ~c:4. () in
      let run oracle measure f =
        let rng = Rng.create ~seed () in
        let channel = Channel.create ~rng:(Rng.split rng) ~oracle ~m:links () in
        let i = Request.measure_of ~measure reqs in
        let budget = algo.Algorithm.duration ~m:links ~i ~n in
        (* a short budget too, so runs also end with packets pending *)
        let o1 = f ~channel ~rng ~measure ~requests:reqs ~budget in
        let o2 = f ~channel ~rng ~measure ~requests:reqs ~budget:(budget / 3) in
        let tr = Channel.trace channel in
        ( o1, o2,
          (Trace.slots tr, Trace.attempts tr, Trace.successes tr, Trace.busy_slots tr),
          Rng.int rng 1_000_000 )
      in
      let fast ~channel ~rng ~measure ~requests ~budget =
        algo.Algorithm.run ~channel ~rng ~measure ~requests ~budget
      in
      let slow = Reference.delay_select ~c:4. ~window_floor:8 in
      List.for_all
        (fun (oracle, measure) -> run oracle measure fast = run oracle measure slow)
        ((Oracle.Wireline, Measure.identity links)
        :: (Oracle.Lossy (Oracle.Sinr phys, 0.1), snd (List.hd measures))
        :: List.map (fun (_, w) -> (Oracle.Sinr phys, w)) measures))

(* ------------------------------------------------------------- Intvec *)

let prop_sort =
  QCheck.Test.make ~count:300 ~name:"Intvec.sort sorts"
    QCheck.(list small_int)
    (fun l ->
      let v = Intvec.of_list l in
      Intvec.sort v;
      Intvec.to_list v = List.sort compare l)

let () =
  Alcotest.run "live_round"
    [ ( "window",
        [ Alcotest.test_case "near window is local" `Quick test_window_is_local;
          Alcotest.test_case "columns on demand" `Quick test_columns ] );
      ( "live round",
        List.map QCheck_alcotest.to_alcotest
          [ prop_measure_of_live;
            prop_vector_sinr;
            prop_vector_conflict;
            prop_delay_select_reference;
            prop_sort ] ) ]
