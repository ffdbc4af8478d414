module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Timeseries = Dps_prelude.Timeseries
module Topology = Dps_network.Topology
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Channel = Dps_sim.Channel
module Oracle = Dps_sim.Oracle
module Scratch = Dps_sim.Scratch

type clock = Global | Local

type result = {
  slots : int;
  injected : int;
  delivered : int;
  long_queue_final : int;
  long_queue : Timeseries.t;
  total_queue : Timeseries.t;
  verdict : Stability.verdict;
}

let physics ~m =
  assert (m >= 2);
  let graph = Topology.figure_one ~m in
  let alpha = 3. in
  let long_len = 10. *. float_of_int m *. float_of_int m in
  (* Noise low enough that the long link has SINR 2β when alone. *)
  let noise = 1. /. (long_len ** alpha) /. 2. in
  let params = Params.make ~alpha ~beta:1. ~noise () in
  Physics.make params (Power.uniform 1.) graph

let critical_rate ~m = log (float_of_int m) /. float_of_int m

let run ?phys ~m ~clock ~lambda ~slots rng =
  assert (m >= 2 && slots > 0 && lambda >= 0. && lambda <= 1.);
  let phys = match phys with Some p -> p | None -> physics ~m in
  let channel = Channel.create ~oracle:(Oracle.Sinr phys) ~m () in
  let attempts = (Channel.scratch channel).Scratch.attempts in
  let long = m - 1 in
  let queues = Array.make m 0 in
  (* Local clocks: an arbitrary phase offset per link, unknowable to the
     others; Global: all phases 0. *)
  let phase =
    match clock with
    | Global -> Array.make m 0
    | Local -> Array.init m (fun _ -> Rng.int rng 2)
  in
  let injected = ref 0 and delivered = ref 0 in
  let long_series = Timeseries.create () in
  let total_series = Timeseries.create () in
  let sample_every = Int.max 1 (slots / 512) in
  for slot = 0 to slots - 1 do
    (* Arrivals. *)
    for e = 0 to m - 1 do
      if Rng.bernoulli rng lambda then begin
        queues.(e) <- queues.(e) + 1;
        incr injected
      end
    done;
    (* The even/odd rule against each link's own clock: short links fire on
       their even slots, the long link on its odd slots. Links attempt in
       descending id order, the SINR summation order the goldens pin. *)
    Intvec.clear attempts;
    for e = m - 1 downto 0 do
      if queues.(e) > 0 then begin
        let local_parity = (slot + phase.(e)) mod 2 in
        let wants = if e = long then local_parity = 1 else local_parity = 0 in
        if wants then Intvec.push attempts e
      end
    done;
    let succeeded = Channel.step channel attempts in
    for i = 0 to Intvec.length succeeded - 1 do
      let e = Intvec.get succeeded i in
      queues.(e) <- queues.(e) - 1;
      incr delivered
    done;
    if slot mod sample_every = 0 then begin
      Timeseries.add long_series (float_of_int queues.(long));
      Timeseries.add total_series
        (float_of_int (Array.fold_left ( + ) 0 queues))
    end
  done;
  { slots;
    injected = !injected;
    delivered = !delivered;
    long_queue_final = queues.(long);
    long_queue = long_series;
    total_queue = total_series;
    verdict = Stability.assess total_series }
