module Rng = Dps_prelude.Rng
module Util = Dps_prelude.Util
module Intvec = Dps_prelude.Intvec
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch

(* Window rounds over the channel's scratch, allocation-free once warm:

   - [pending]: unserved request indices, ascending, compacted in place
     after every round;
   - [nb]: the slot each pending request drew, in [pending] order, so
     the draws run in ascending index order;
   - [nc]: slot region starts of a counting sort of the draws, and [na]
     the request indices grouped by slot. Each region is filled from the
     highest index down, so each slot submits its requests in
     descending index order;
   - [owner]: link -> request index for this slot's attempts. A link the
     channel reports as successful carried exactly one attempt.

   Those draw and submission orders are the ones the fixed-seed goldens
   pin; test/reference.ml states them as a list implementation. The
   round's interference is [Request.measure_of_live] over [pending]:
   proportional to the live links' columns, not to m. The run allocates
   only its [served] array and outcome. *)
let make ?(c = 4.) ?(window_floor = 8) ?(slack = 4) () =
  assert (c >= 1. && window_floor >= 1 && slack >= 0);
  let duration ~m:_ ~i ~n =
    let tail = Util.ceil_log2 (float_of_int (n + 1)) + slack in
    int_of_float (Float.ceil (2. *. c *. Float.max i 1.)) + (window_floor * tail)
  in
  let run ~channel ~rng ~measure ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let s = Channel.scratch channel in
    let pending = s.Scratch.pending and attempts = s.Scratch.attempts in
    Intvec.clear pending;
    for idx = 0 to n - 1 do
      Intvec.push pending idx
    done;
    let used = ref 0 in
    while (not (Intvec.is_empty pending)) && !used < budget do
      let i_val = Request.measure_of_live s ~measure requests pending in
      let window =
        Int.max window_floor (int_of_float (Float.ceil (c *. i_val)))
      in
      let window = Int.min window (budget - !used) in
      let np = Intvec.length pending in
      Scratch.ensure_n s (Int.max np (window + 1));
      let draw = s.Scratch.nb and start = s.Scratch.nc and by_slot = s.Scratch.na in
      (* Each pending packet transmits exactly once, at a uniform slot
         of the window. *)
      Array.fill start 0 (window + 1) 0;
      for p = 0 to np - 1 do
        let d = Rng.int rng window in
        draw.(p) <- d;
        start.(d + 1) <- start.(d + 1) + 1
      done;
      for d = 1 to window do
        start.(d) <- start.(d) + start.(d - 1)
      done;
      for p = np - 1 downto 0 do
        let d = draw.(p) in
        by_slot.(start.(d)) <- Intvec.get pending p;
        start.(d) <- start.(d) + 1
      done;
      (* [start.(d)] now ends region d; region d begins where d - 1 ends. *)
      for slot = 0 to window - 1 do
        Intvec.clear attempts;
        for k = (if slot = 0 then 0 else start.(slot - 1)) to start.(slot) - 1 do
          let idx = by_slot.(k) in
          let link = requests.(idx).Request.link in
          s.Scratch.owner.(link) <- idx;
          Intvec.push attempts link
        done;
        let succeeded = Channel.step channel attempts in
        for i = 0 to Intvec.length succeeded - 1 do
          served.(s.Scratch.owner.(Intvec.get succeeded i)) <- true
        done;
        incr used
      done;
      Algorithm.drop_served served pending
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "delay-select(c=%g)" c; duration; run }
