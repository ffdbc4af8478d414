module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch

let make ?(c = 4.) ?(slack = 4.) ?(adaptive = false) () =
  assert (c >= 1. && slack >= 0.);
  let duration ~m:_ ~i ~n =
    let i = Float.max i 1. in
    int_of_float
      (Float.ceil (2. *. c *. i *. (log (float_of_int (n + 1)) +. slack)))
  in
  let run ~channel ~rng ~measure ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let initial_i = Request.measure_of ~measure requests in
    let used = ref 0 in
    let pending = ref (List.init n Fun.id) in
    while !used < budget && !pending <> [] do
      let i_val =
        if adaptive then begin
          let s = Channel.scratch channel in
          Intvec.clear s.Scratch.pending;
          List.iter (Intvec.push s.Scratch.pending) !pending;
          Request.measure_of_live s ~measure requests s.Scratch.pending
        end
        else initial_i
      in
      let p = Float.min 1. (1. /. (c *. Float.max i_val 1.)) in
      let attempts =
        List.filter_map
          (fun idx ->
            if Rng.bernoulli rng p then Some (idx, requests.(idx).Request.link)
            else None)
          !pending
      in
      let succeeded = Channel.step channel (List.map snd attempts) in
      Runner.mark_successes ~served ~attempts ~succeeded;
      (match succeeded with
      | [] -> ()
      | _ -> pending := List.filter (fun idx -> not served.(idx)) !pending);
      incr used
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "contention(c=%g)" c; duration; run }

let theorem_19 = make ~c:4. ()
