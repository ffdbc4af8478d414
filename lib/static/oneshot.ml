module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch
module Intvec = Dps_prelude.Intvec

(* Every pending request attempts its link each slot until served;
   per-link FIFO order among requests sharing a link.

   The request queues live in the channel's scratch as a CSR layout:
   [na] holds all request indices grouped by link ([ia] = head cursor,
   [ib] = region end), and [active] lists the links with nonempty queues
   in DESCENDING link order, the submission order the fixed-seed goldens
   pin. Per slot the active vector IS the attempt set
   (one head per link), emptied links are compacted out in place, and
   nothing is allocated: the whole run heap-allocates only the [served]
   array, the outcome record and two loop refs, independent of the
   budget (test/test_alloc.ml pins this). *)
let algorithm =
  let duration ~m:_ ~i ~n =
    Int.min (int_of_float (Float.ceil (Float.max i 1.))) (Int.max 1 n)
  in
  let run ~channel ~rng:_ ~measure:_ ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let s = Channel.scratch channel in
    Scratch.ensure_n s n;
    (* Pass 1: per-link occupancy ([ic]), first touches flagged. *)
    for idx = 0 to n - 1 do
      let link = requests.(idx).Request.link in
      if not s.Scratch.flags.(link) then begin
        s.Scratch.flags.(link) <- true;
        s.Scratch.ic.(link) <- 0
      end;
      s.Scratch.ic.(link) <- s.Scratch.ic.(link) + 1
    done;
    (* Pass 2: descending scan assigns CSR regions, builds the active
       list in descending link order and clears every flag set above. *)
    Intvec.clear s.Scratch.active;
    let base = ref 0 in
    for link = s.Scratch.m - 1 downto 0 do
      if s.Scratch.flags.(link) then begin
        s.Scratch.flags.(link) <- false;
        Intvec.push s.Scratch.active link;
        s.Scratch.ia.(link) <- !base;
        s.Scratch.ib.(link) <- !base;
        base := !base + s.Scratch.ic.(link)
      end
    done;
    (* Pass 3: fill the regions; ascending [idx] keeps FIFO order. *)
    for idx = 0 to n - 1 do
      let link = requests.(idx).Request.link in
      s.Scratch.na.(s.Scratch.ib.(link)) <- idx;
      s.Scratch.ib.(link) <- s.Scratch.ib.(link) + 1
    done;
    let used = ref 0 in
    let kept = ref 0 in
    while !used < budget && not (Intvec.is_empty s.Scratch.active) do
      let succeeded = Channel.step channel s.Scratch.active in
      for i = 0 to Intvec.length succeeded - 1 do
        let link = Intvec.get succeeded i in
        served.(s.Scratch.na.(s.Scratch.ia.(link))) <- true;
        s.Scratch.ia.(link) <- s.Scratch.ia.(link) + 1
      done;
      (* Stable in-place compaction of emptied links. *)
      kept := 0;
      for k = 0 to Intvec.length s.Scratch.active - 1 do
        let link = Intvec.get s.Scratch.active k in
        if s.Scratch.ia.(link) < s.Scratch.ib.(link) then begin
          Intvec.set s.Scratch.active !kept link;
          incr kept
        end
      done;
      Intvec.truncate s.Scratch.active !kept;
      incr used
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = "oneshot"; duration; run }
