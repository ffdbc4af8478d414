module Intvec = Dps_prelude.Intvec
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch
module Algorithm = Dps_static.Algorithm
module Request = Dps_static.Request

(* Each station's packets form a FIFO in the channel's scratch: [ia]
   holds the head request of each station (-1 = empty) and [na] chains
   each request to the next one on its station, in ascending request
   order. Stations take their turns in ascending id order, so the run
   allocates only its [served] array and outcome. *)
let algorithm =
  (* On the multiple-access channel the interference measure of a request
     set IS its size, so the n + m schedule bound is I + m in A(I, n)
     terms — which is what frame sizing needs. *)
  let duration ~m ~i ~n =
    Int.min (n + m) (int_of_float (Float.ceil (Float.max i 1.)) + m)
  in
  let run ~channel ~rng:_ ~measure:_ ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let m = Channel.size channel in
    let s = Channel.scratch channel in
    Scratch.ensure_n s n;
    let head = s.Scratch.ia and next = s.Scratch.na in
    Array.fill head 0 m (-1);
    for idx = n - 1 downto 0 do
      let link = requests.(idx).Request.link in
      next.(idx) <- head.(link);
      head.(link) <- idx
    done;
    let attempts = s.Scratch.attempts in
    let used = ref 0 in
    let station = ref 0 in
    while !station < m && !used < budget do
      Intvec.clear attempts;
      let idx = head.(!station) in
      if idx < 0 then begin
        (* Silent slot: hand over to the next station. *)
        ignore (Channel.step channel attempts);
        incr station
      end
      else begin
        Intvec.push attempts !station;
        if not (Intvec.is_empty (Channel.step channel attempts)) then
          served.(idx) <- true;
        head.(!station) <- next.(idx)
      end;
      incr used
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = "round-robin-withholding"; duration; run }
