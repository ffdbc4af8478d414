module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Channel = Dps_sim.Channel
module Scratch = Dps_sim.Scratch
module Algorithm = Dps_static.Algorithm
module Request = Dps_static.Request

(* Stage-2 residue size: the proof of Lemma 15 takes
   s = Θ((1+δ)²/δ² · φ·log n); the engineering choice drops the 1/δ²
   union-bound factor (it only tightens the failure probability) and keeps
   the Θ(log n) shape, which is what the additive g(m, n) term and hence
   the frame length inherit. *)
let residue ~phi ~delta:_ ~n =
  Int.max 2
    (int_of_float (Float.ceil (4. *. ((phi *. log (float_of_int (n + 1))) +. 1.))))

let iterations ~delta ~n ~s =
  let q = 1. -. (1. /. (Float.exp 1. *. (1. +. delta))) in
  if n <= s then 0
  else
    Int.max 0
      (int_of_float
         (Float.ceil (log (float_of_int n /. float_of_int s) /. log (1. /. q))))

let make ?(phi = 1.) ?(delta = 0.5) () =
  assert (phi > 0. && delta > 0.);
  let q = 1. -. (1. /. (Float.exp 1. *. (1. +. delta))) in
  (* On the multiple-access channel I equals the packet count, so the
     Lemma 15 bound (1+δ)·e·n + O(log² n) reads (1+δ)·e·I + tail in
     A(I, n) terms; stating it in I keeps frame sizing honest when the
     caller passes a measure bound rather than an exact count. *)
  let duration ~m:_ ~i ~n =
    if n = 0 then 0
    else begin
      let count = Int.min n (int_of_float (Float.ceil (Float.max i 1.))) in
      let s = residue ~phi ~delta ~n:count in
      (* Σ_{i≥0} q^i · count = e(1+δ) · count. *)
      let stage1 =
        int_of_float
          (Float.ceil
             ((1. +. delta) *. Float.exp 1. *. float_of_int count))
        + 1
      in
      let stage2 =
        int_of_float
          (Float.ceil
             (float_of_int s *. Float.exp 1. *. (phi +. 1.)
             *. log (float_of_int (count + 1))))
      in
      stage1 + stage2
    end
  in
  let run ~channel ~rng ~measure:_ ~requests ~budget =
    let n = Array.length requests in
    let served = Array.make n false in
    let used = ref 0 in
    let finished () = Array.for_all Fun.id served in
    if n > 0 then begin
      let s = residue ~phi ~delta ~n in
      let xi = iterations ~delta ~n ~s in
      let sc = Channel.scratch channel in
      Scratch.ensure_n sc n;
      let pending = sc.Scratch.pending in
      let attempts = sc.Scratch.attempts in
      (* Unserved request indices, ascending: the rng draw order of both
         stages, which the mac goldens pin. *)
      let refill_pending () =
        Intvec.clear pending;
        for idx = 0 to n - 1 do
          if not served.(idx) then Intvec.push pending idx
        done
      in
      (* Emit one slot's attempts: set the owner map and let the channel
         adjudicate; served requests are marked through [owner] (only
         collision-free links succeed, so the map is unambiguous). *)
      let serve_slot () =
        let succeeded = Channel.step channel attempts in
        for i = 0 to Intvec.length succeeded - 1 do
          served.(sc.Scratch.owner.(Intvec.get succeeded i)) <- true
        done;
        incr used;
        Intvec.length succeeded
      in
      (* Stage 1: geometrically shrinking random-delay windows. *)
      let i = ref 1 in
      while !i <= xi && !used < budget && not (finished ()) do
        (* Window q^(i-1)·n: the pending count is (whp) at most q^(i-1)·n,
           so the per-slot density stays 1 and each packet survives with
           probability ≈ 1 - 1/e ≤ q = 1 - 1/(e(1+δ)). *)
        let window =
          Int.max 1
            (int_of_float (q ** float_of_int (!i - 1) *. float_of_int n))
        in
        let window = Int.min window (budget - !used) in
        (* A counting sort of the draws. Draws happen in ascending
           pending order (pass 1); the fill pass walks pending
           DESCENDING, so each slot submits its requests from the
           highest index down, the order the mac goldens pin. After the
           fill, [nc.(d)] is the end of region d. *)
        refill_pending ();
        let np = Intvec.length pending in
        for d = 0 to window - 1 do
          sc.Scratch.nc.(d) <- 0
        done;
        for k = 0 to np - 1 do
          let d = Rng.int rng window in
          sc.Scratch.nb.(k) <- d;
          sc.Scratch.nc.(d) <- sc.Scratch.nc.(d) + 1
        done;
        let base = ref 0 in
        for d = 0 to window - 1 do
          let c = sc.Scratch.nc.(d) in
          sc.Scratch.nc.(d) <- !base;
          base := !base + c
        done;
        for k = np - 1 downto 0 do
          let d = sc.Scratch.nb.(k) in
          sc.Scratch.na.(sc.Scratch.nc.(d)) <- Intvec.get pending k;
          sc.Scratch.nc.(d) <- sc.Scratch.nc.(d) + 1
        done;
        for slot = 0 to window - 1 do
          let lo = if slot = 0 then 0 else sc.Scratch.nc.(slot - 1) in
          let hi = sc.Scratch.nc.(slot) in
          Intvec.clear attempts;
          for pos = lo to hi - 1 do
            let idx = sc.Scratch.na.(pos) in
            let link = requests.(idx).Request.link in
            sc.Scratch.owner.(link) <- idx;
            Intvec.push attempts link
          done;
          ignore (serve_slot ())
        done;
        incr i
      done;
      (* Stage 2: Bernoulli(1/s) retransmissions for the residue. *)
      let p = 1. /. float_of_int s in
      refill_pending ();
      while !used < budget && not (Intvec.is_empty pending) do
        Intvec.clear attempts;
        for k = 0 to Intvec.length pending - 1 do
          let idx = Intvec.get pending k in
          if Rng.bernoulli rng p then begin
            let link = requests.(idx).Request.link in
            sc.Scratch.owner.(link) <- idx;
            Intvec.push attempts link
          end
        done;
        if serve_slot () > 0 then Algorithm.drop_served served pending
      done
    end;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "decay(phi=%g,delta=%g)" phi delta;
    duration;
    run }
