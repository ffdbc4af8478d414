(* Per-channel scratch buffers for the zero-allocation hot loop.

   Every channel owns one [Scratch.t]; the static algorithms borrow it
   through [Channel.scratch] instead of allocating their per-slot
   worklists. Ownership contract: exactly one algorithm drives a channel
   at a time (the protocol serialises phase 1 and clean-up), so a single
   set of buffers per channel suffices. Scratch is deliberately NOT
   shared across channels: algorithm values are shared across domains by
   [Driver.run_many], so any mutable state keyed to the algorithm would
   race — keying it to the channel (one per replica, per domain) keeps
   the fan-out deterministic.

   Field conventions:
   - [attempts], [active], [pending], [spare]: cleared by the borrower
     before use;
   - [owner], [ia], [ib], [ic] (length m): garbage between uses — every
     read must be preceded by a write in the same run;
   - [flags] (length m): all-false between uses — borrowers must clear
     every flag they set before returning;
   - [na], [nb]: n-sized int scratch, grown on demand via [ensure_n];
   - the cached load tracker is keyed by physical measure identity and
     must be handed back reset (its [reset] is sparse and cheap). *)

module Measure = Dps_interference.Measure
module Load_tracker = Dps_interference.Load_tracker
module Intvec = Dps_prelude.Intvec

type t = {
  m : int;
  jobs : int;
  attempts : Intvec.t;
  active : Intvec.t;
  pending : Intvec.t;
  spare : Intvec.t;
  owner : int array;
  flags : bool array;
  ia : int array;
  ib : int array;
  ic : int array;
  mutable na : int array;
  mutable nb : int array;
  mutable nc : int array;
  mutable tracker : Load_tracker.t option;
}

let create ?(jobs = 1) ~m () =
  assert (m > 0);
  { m;
    jobs;
    attempts = Intvec.create ();
    active = Intvec.create ();
    pending = Intvec.create ();
    spare = Intvec.create ();
    owner = Array.make m 0;
    flags = Array.make m false;
    ia = Array.make m 0;
    ib = Array.make m 0;
    ic = Array.make m 0;
    na = Array.make 16 0;
    nb = Array.make 16 0;
    nc = Array.make 16 0;
    tracker = None }

(* Top level, so that [ensure_n] builds no closure. *)
let grow n a =
  if n > Array.length a then Array.make (Int.max n (2 * Array.length a)) 0
  else a

let ensure_n t n =
  t.na <- grow n t.na;
  t.nb <- grow n t.nb;
  t.nc <- grow n t.nc

(* One tracker per channel, created on first use and reused for every
   later run over the physically same measure — hoisting the O(m)
   [Load_tracker.create] out of every Measure_greedy invocation. The
   protocol always passes the same measure value, so the key comparison
   is one pointer test per run. *)
let tracker t measure =
  match t.tracker with
  | Some tr when Load_tracker.measure tr == measure -> tr
  | _ ->
    let tr = Load_tracker.create ~jobs:t.jobs measure in
    t.tracker <- Some tr;
    tr
