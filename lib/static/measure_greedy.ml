module Util = Dps_prelude.Util
module Intvec = Dps_prelude.Intvec
module Measure = Dps_interference.Measure
module Load_tracker = Dps_interference.Load_tracker
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch

let make ?(budget = 0.5) ?(slack = 8) ~priority () =
  assert (budget > 0. && slack >= 0);
  let duration ~m:_ ~i ~n =
    int_of_float (Float.ceil (2. *. Float.max i 1. /. budget))
    + (slack * (Util.ceil_log2 (float_of_int (n + 1)) + 1))
  in
  let run ~channel ~rng:_ ~measure ~requests ~budget:slots =
    let n = Array.length requests in
    let served = Array.make n false in
    let used = ref 0 in
    (* Fixed processing order: by priority of the requested link, ties by
       request index so the schedule is deterministic. Each priority is
       computed once, not twice per comparison, into a [float array]
       typed as such so that comparisons read unboxed floats. *)
    let key : float array =
      Array.init n (fun idx -> priority requests.(idx).Request.link)
    in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let pa = key.(a) and pb = key.(b) in
        if pa = pb then compare a b else compare pa pb)
      order;
    (* One tracker for the whole run, cached on the channel's scratch so
       repeated runs skip the O(m) create; reset sparsely between rounds.
       It holds the current round's unit load per member link, so
       [interference_at tracker e] is 1 + Σ_{e' ∈ round, e' ≠ e} W(e, e')
       for members and Σ_{e' ∈ round} W(c, e') for outside candidates. *)
    let s = Channel.scratch channel in
    let tracker = Scratch.tracker s measure in
    let in_round = s.Scratch.flags in
    (* Accepted request indices in acceptance order; the round is
       submitted newest acceptance first, the order the fixed-seed
       goldens pin. *)
    let round = s.Scratch.pending in
    let attempts = s.Scratch.attempts in
    (* Accept [candidate] if its own incoming load over the current
       members is within budget, and every member it would hit stays
       within budget. Members outside the candidate's column are
       unaffected, and their loads were within budget when they were
       admitted. O(nnz(column candidate)), read straight off the
       measure's kept column: no closure, no boxed weight. *)
    let load_within candidate =
      Load_tracker.interference_at tracker candidate <= budget
      && begin
           let { Measure.rows; weights; lo; hi = stop } =
             Measure.column measure candidate
           in
           let k = ref lo in
           while
             !k < stop
             && begin
                  let e = rows.(!k) in
                  not
                    (in_round.(e)
                    && Load_tracker.interference_at tracker e -. 1.
                       +. weights.(!k)
                       > budget)
                end
           do
             incr k
           done;
           !k = stop
         end
    in
    (* [order] is compacted in place as requests are served (stable, so
       the priority order of the survivors is untouched): round packing
       scans only the unserved tail instead of all n requests every slot. *)
    let order_len = ref n in
    let remaining = ref n in
    let continue = ref true in
    while !continue && !used < slots do
      (* Pack one round: accept the next request (in priority order) if the
         pairwise interference load of the round stays within budget. *)
      Intvec.clear round;
      for oi = 0 to !order_len - 1 do
        let idx = order.(oi) in
        if not served.(idx) then begin
          let link = requests.(idx).Request.link in
          (* One packet per link per slot: skip links already in round. *)
          if (not in_round.(link)) && load_within link then begin
            Intvec.push round idx;
            in_round.(link) <- true;
            s.Scratch.owner.(link) <- idx;
            Load_tracker.add tracker link
          end
        end
      done;
      for k = 0 to Intvec.length round - 1 do
        in_round.(requests.(Intvec.get round k).Request.link) <- false
      done;
      Load_tracker.reset tracker;
      if Intvec.is_empty round then continue := false
      else begin
        Intvec.clear attempts;
        for k = Intvec.length round - 1 downto 0 do
          Intvec.push attempts requests.(Intvec.get round k).Request.link
        done;
        let succeeded = Channel.step channel attempts in
        let ns = Intvec.length succeeded in
        for i = 0 to ns - 1 do
          served.(s.Scratch.owner.(Intvec.get succeeded i)) <- true
        done;
        remaining := !remaining - ns;
        incr used;
        if ns > 0 then begin
          let kept = ref 0 in
          for oi = 0 to !order_len - 1 do
            let idx = order.(oi) in
            if not served.(idx) then begin
              order.(!kept) <- idx;
              incr kept
            end
          done;
          order_len := !kept
        end;
        if !remaining = 0 then continue := false
      end
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "measure-greedy(b=%g)" budget; duration; run }
