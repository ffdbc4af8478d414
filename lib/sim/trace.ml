type t = {
  mutable slots : int;
  mutable attempts : int;
  mutable successes : int;
  mutable busy_slots : int;
  attempts_on : int array;
  successes_on : int array;
  (* Per-slot measured interference ||W·attempts||_inf, recorded only by
     channels carrying a measure; zero slots are not recorded. *)
  mutable interference_slots : int;
  mutable interference_sum : float;
  mutable interference_peak : float;
}

let create ~m =
  assert (m > 0);
  { slots = 0;
    attempts = 0;
    successes = 0;
    busy_slots = 0;
    attempts_on = Array.make m 0;
    successes_on = Array.make m 0;
    interference_slots = 0;
    interference_sum = 0.;
    interference_peak = 0. }

let slots t = t.slots
let attempts t = t.attempts
let successes t = t.successes
let busy_slots t = t.busy_slots
let successes_on t e = t.successes_on.(e)
let attempts_on t e = t.attempts_on.(e)

let record_interference t i =
  t.interference_slots <- t.interference_slots + 1;
  t.interference_sum <- t.interference_sum +. i;
  if i > t.interference_peak then t.interference_peak <- i

let peak_interference t = t.interference_peak

let mean_interference t =
  if t.interference_slots = 0 then 0.
  else t.interference_sum /. float_of_int t.interference_slots

(* Link order is irrelevant here — only counts are kept. Index loops,
   not [Intvec.iter]: a capturing closure would allocate every slot. *)
let record t ~attempted ~succeeded =
  let module V = Dps_prelude.Intvec in
  t.slots <- t.slots + 1;
  let na = V.length attempted in
  if na > 0 then t.busy_slots <- t.busy_slots + 1;
  t.attempts <- t.attempts + na;
  for i = 0 to na - 1 do
    let e = V.get attempted i in
    t.attempts_on.(e) <- t.attempts_on.(e) + 1
  done;
  let ns = V.length succeeded in
  t.successes <- t.successes + ns;
  for i = 0 to ns - 1 do
    let e = V.get succeeded i in
    t.successes_on.(e) <- t.successes_on.(e) + 1
  done

let pp ppf t =
  Format.fprintf ppf "slots=%d busy=%d attempts=%d successes=%d" t.slots
    t.busy_slots t.attempts t.successes
