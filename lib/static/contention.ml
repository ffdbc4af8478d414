module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch

(* Every slot, each pending request draws one Bernoulli, in ascending
   request order, and the winners of the draw attempt in that order.

   The pending requests live in the channel's scratch: [pending] holds
   their indices ascending, compacted in place after a slot with
   successes; [attempts] is the slot's attempt vector and [owner] maps
   each attempting link to its request (a link the channel reports as
   successful carried exactly one attempt). The interference measure is
   [Request.measure_of_live], so a run allocates its [served] array and
   outcome, plus the rng's boxed float per draw and, when [adaptive],
   the boxed measure of each slot. *)
let make ?(c = 4.) ?(slack = 4.) ?(adaptive = false) () =
  assert (c >= 1. && slack >= 0.);
  let duration ~m:_ ~i ~n =
    let i = Float.max i 1. in
    int_of_float
      (Float.ceil (2. *. c *. i *. (log (float_of_int (n + 1)) +. slack)))
  in
  let probability i_val = Float.min 1. (1. /. (c *. Float.max i_val 1.)) in
  let run ~channel ~rng ~measure ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let s = Channel.scratch channel in
    let pending = s.Scratch.pending and attempts = s.Scratch.attempts in
    Intvec.clear pending;
    for idx = 0 to n - 1 do
      Intvec.push pending idx
    done;
    let initial_p =
      probability (Request.measure_of_live s ~measure requests pending)
    in
    let used = ref 0 in
    while !used < budget && not (Intvec.is_empty pending) do
      let p =
        if adaptive then
          probability (Request.measure_of_live s ~measure requests pending)
        else initial_p
      in
      Intvec.clear attempts;
      for k = 0 to Intvec.length pending - 1 do
        let idx = Intvec.get pending k in
        if Rng.bernoulli rng p then begin
          let link = requests.(idx).Request.link in
          s.Scratch.owner.(link) <- idx;
          Intvec.push attempts link
        end
      done;
      let succeeded = Channel.step channel attempts in
      let ns = Intvec.length succeeded in
      for i = 0 to ns - 1 do
        served.(s.Scratch.owner.(Intvec.get succeeded i)) <- true
      done;
      if ns > 0 then Algorithm.drop_served served pending;
      incr used
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "contention(c=%g)" c; duration; run }

let theorem_19 = make ~c:4. ()
