module Rng = Dps_prelude.Rng
module Path = Dps_network.Path

type generator = { choices : (Path.t * float) array; mass : float }
type t = { gens : generator array }

let check_generator choices =
  List.iter
    (fun (_, p) ->
      if p < 0. then invalid_arg "Stochastic.make: negative probability")
    choices;
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0. choices in
  if mass > 1. +. 1e-9 then
    invalid_arg "Stochastic.make: generator probability mass exceeds 1";
  { choices = Array.of_list choices; mass }

let make generators = { gens = Array.of_list (List.map check_generator generators) }
let generators t = Array.length t.gens

let flow t ~m =
  let f = Array.make m 0. in
  Array.iter
    (fun g ->
      Array.iter
        (fun (p, prob) ->
          for i = 0 to Path.length p - 1 do
            let e = Path.hop p i in
            f.(e) <- f.(e) +. prob
          done)
        g.choices)
    t.gens;
  f

let rate t measure =
  Rate.of_flow measure (flow t ~m:(Dps_interference.Measure.size measure))

let scale t factor =
  if factor < 0. then invalid_arg "Stochastic.scale: negative factor";
  let scale_gen g =
    let mass = g.mass *. factor in
    if mass > 1. +. 1e-9 then
      invalid_arg "Stochastic.scale: generator probability mass exceeds 1";
    { choices = Array.map (fun (p, prob) -> (p, prob *. factor)) g.choices; mass }
  in
  { gens = Array.map scale_gen t.gens }

let calibrate t measure ~target =
  if target < 0. then invalid_arg "Stochastic.calibrate: negative target";
  let current = rate t measure in
  if current <= 0. then invalid_arg "Stochastic.calibrate: current rate is 0";
  scale t (target /. current)

(* Ascending generator order fixes the rng stream (one [Rng.float] per
   generator per slot); arrivals accumulate newest-first and are reversed,
   so the common no-arrival slot returns [] without allocating. Each draw
   is one multinomial: u lands in a choice's probability segment, or in
   the silent remainder [mass, 1). The segment scan is a loop over local
   floats, so nothing is boxed per generator. *)
let rec draw_gens gens rng i acc =
  if i >= Array.length gens then List.rev acc
  else begin
    let u = Rng.float rng 1. in
    let choices = gens.(i).choices in
    let hit = ref (-1) and j = ref 0 and cum = ref 0. in
    while !hit < 0 && !j < Array.length choices do
      let _, prob = choices.(!j) in
      cum := !cum +. prob;
      if u < !cum then hit := !j else incr j
    done;
    if !hit < 0 then draw_gens gens rng (i + 1) acc
    else draw_gens gens rng (i + 1) (fst choices.(!hit) :: acc)
  end

let draw t rng ~slot:_ = draw_gens t.gens rng 0 []

let max_path_length t =
  Array.fold_left
    (fun acc g ->
      Array.fold_left (fun acc (p, _) -> Int.max acc (Path.length p)) acc g.choices)
    0 t.gens
