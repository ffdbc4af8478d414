module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Timeseries = Dps_prelude.Timeseries
module Histogram = Dps_prelude.Histogram
module Arena = Dps_sim.Packet_arena
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch

type report = {
  slots : int;
  injected : int;
  delivered : int;
  in_system : Timeseries.t;
  latency : Histogram.t;
  max_queue : int;
}

(* The greedy set, over the channel's scratch:
   - [spare]: the links with queued packets as sort keys
     [(top - weight) · m + link], so ascending keys run by weight,
     descending, ties by ascending id;
   - [active]: the accepted links in acceptance order, then the
     candidate under probe; [ia] marks them for the Conflict rule;
   - [pending]: the probe's winners;
   - [attempts]: the result, newest acceptance first.
   For Lossy oracles the probe must not consume randomness, so it runs
   against the deterministic core and losses land when the set
   transmits. *)
let greedy_set channel weights =
  let rec core = function Oracle.Lossy (base, _) -> core base | o -> o in
  let oracle = core (Channel.oracle channel) in
  let m = Channel.size channel in
  assert (Array.length weights = m);
  let s = Channel.scratch channel in
  let keys = s.Scratch.spare and accepted = s.Scratch.active in
  let marks = s.Scratch.ia and winners = s.Scratch.pending in
  let top = Array.fold_left Int.max 0 weights in
  Intvec.clear keys;
  for e = 0 to m - 1 do
    marks.(e) <- 0;
    if weights.(e) > 0 then Intvec.push keys (((top - weights.(e)) * m) + e)
  done;
  Intvec.sort keys;
  Intvec.clear accepted;
  for k = 0 to Intvec.length keys - 1 do
    let e = Intvec.get keys k mod m in
    Intvec.push accepted e;
    marks.(e) <- 1;
    Oracle.adjudicate oracle ~active:accepted ~marks ~winners;
    if Intvec.length winners < Intvec.length accepted then begin
      ignore (Intvec.pop accepted);
      marks.(e) <- 0
    end
  done;
  let chosen = s.Scratch.attempts in
  Intvec.clear chosen;
  for k = Intvec.length accepted - 1 downto 0 do
    Intvec.push chosen (Intvec.get accepted k)
  done;
  chosen

let run ~oracle ~m ~inject_slot ~slots ?sample rng =
  assert (m > 0 && slots > 0);
  let sample = Option.value ~default:(Int.max 1 (slots / 512)) sample in
  let channel = Channel.create ~rng:(Rng.split rng) ~oracle ~m () in
  (* Per-link FIFOs threaded through the arena's [next] chain, -1 =
     empty; [weights] holds their lengths. *)
  let arena = Arena.create () in
  let head = Array.make m (-1) and tail = Array.make m (-1) in
  let weights = Array.make m 0 in
  let enqueue p =
    let link = Arena.next_link arena p in
    Arena.set_next arena p (-1);
    if tail.(link) < 0 then head.(link) <- p
    else Arena.set_next arena tail.(link) p;
    tail.(link) <- p;
    weights.(link) <- weights.(link) + 1
  in
  let dequeue link =
    let p = head.(link) in
    head.(link) <- Arena.next arena p;
    if head.(link) < 0 then tail.(link) <- -1;
    weights.(link) <- weights.(link) - 1;
    p
  in
  let injected = ref 0 and delivered = ref 0 in
  let in_system = Timeseries.create () in
  let latency = Histogram.create ~reservoir:65536 () in
  let max_queue = ref 0 in
  let in_flight = ref 0 in
  for slot = 0 to slots - 1 do
    List.iter
      (fun path ->
        enqueue (Arena.alloc arena ~id:!injected ~path ~injected_slot:slot);
        incr injected;
        incr in_flight)
      (inject_slot slot);
    let succeeded = Channel.step channel (greedy_set channel weights) in
    for i = 0 to Intvec.length succeeded - 1 do
      let p = dequeue (Intvec.get succeeded i) in
      Arena.advance arena p ~slot:(Channel.now channel);
      if Arena.delivered arena p then begin
        incr delivered;
        decr in_flight;
        Histogram.add latency rng (float_of_int (Arena.latency arena p));
        Arena.free arena p
      end
      else enqueue p
    done;
    if !in_flight > !max_queue then max_queue := !in_flight;
    if slot mod sample = 0 then
      Timeseries.add in_system (float_of_int !in_flight)
  done;
  { slots;
    injected = !injected;
    delivered = !delivered;
    in_system;
    latency;
    max_queue = !max_queue }

let verdict r = Stability.assess r.in_system
