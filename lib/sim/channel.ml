module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Load_tracker = Dps_interference.Load_tracker
module Telemetry = Dps_telemetry.Telemetry
module Metrics = Dps_telemetry.Metrics

(* Pre-resolved metric handles; allocated once in [create] when telemetry
   is enabled, so the per-slot path never performs a name lookup. *)
type tel = {
  c_slots : Metrics.counter;
  c_busy : Metrics.counter;
  c_attempts : Metrics.counter;
  c_success : Metrics.counter;
  c_collision : Metrics.counter;
  c_denied : Metrics.counter;
}

type faults = {
  on_slot : int -> unit;
  outage : int -> bool;
  drop : link:int -> interference:float -> bool;
}

type t = {
  oracle : Oracle.t;
  m : int;
  mutable now : int;
  trace : Trace.t;
  rng : Rng.t option;  (* randomness for stochastic oracles (Lossy) *)
  counts : int array;
      (* per-slot attempt counts, zero outside step; the Conflict oracle
         reads them as the marks of the active set *)
  tracker : Load_tracker.t option;
      (* measured per-slot attempt interference, when a measure is attached *)
  faults : faults option;
  tel : tel option;
  scratch : Scratch.t;  (* borrowed by the algorithm driving this channel *)
  (* Slot-loop working vectors, reused every step so the steady state
     allocates nothing. [v_succeeded] is the buffer [step] returns:
     owned by the channel, valid until the next step. *)
  v_filtered : Intvec.t;
  v_active : Intvec.t;
  v_winners : Intvec.t;
  v_succeeded : Intvec.t;
  v_none : Intvec.t;  (* always empty: [idle]'s attempts *)
}

let create ?rng ?measure ?telemetry ?faults ?(jobs = 1) ~oracle ~m () =
  assert (m > 0);
  if jobs < 1 then invalid_arg "Channel.create: jobs must be >= 1";
  (match measure with
  | Some w when Dps_interference.Measure.size w <> m ->
    invalid_arg "Channel.create: measure size differs from m"
  | _ -> ());
  let tel =
    match telemetry with
    | Some tl when Telemetry.enabled tl ->
      let reg = Telemetry.metrics tl in
      (* Sparse-measure auditability: a measured channel whose measure is
         ε-sparsified underestimates each slot's attempt
         interference by at most error_bound · ‖attempts‖∞ =
         error_bound (attempt loads are 0/1). Registered only when the
         slack is nonzero, so dense telemetry output is unchanged. *)
      (match measure with
      | Some w when Dps_interference.Measure.error_bound w > 0. ->
        Metrics.set
          (Metrics.gauge reg "channel.interference_error_bound")
          (Dps_interference.Measure.error_bound w)
      | _ -> ());
      Some
        { c_slots = Metrics.counter reg "channel.slots";
          c_busy = Metrics.counter reg "channel.busy_slots";
          c_attempts = Metrics.counter reg "channel.attempts";
          c_success =
            Metrics.counter reg "channel.tx" ~labels:[ ("outcome", "success") ];
          c_collision =
            Metrics.counter reg "channel.tx"
              ~labels:[ ("outcome", "collision") ];
          c_denied =
            Metrics.counter reg "channel.tx" ~labels:[ ("outcome", "denied") ] }
    | _ -> None
  in
  { oracle;
    m;
    now = 0;
    trace = Trace.create ~m;
    rng;
    counts = Array.make m 0;
    tracker = Option.map (Load_tracker.create ~jobs) measure;
    faults;
    tel;
    scratch = Scratch.create ~jobs ~m ();
    v_filtered = Intvec.create ();
    v_active = Intvec.create ();
    v_winners = Intvec.create ();
    v_succeeded = Intvec.create ();
    v_none = Intvec.create () }

let oracle t = t.oracle
let size t = t.m
let now t = t.now
let trace t = t.trace
let scratch t = t.scratch

(* One slot over an attempt vector. Returns the channel-owned success
   vector, valid until the next step. The steady-state path allocates
   nothing.

   Orders are load-bearing: the oracle adjudicates the distinct links
   back to front from their first-occurrence order, and the load tracker
   sums them in that same reverse first-occurrence order, so oracle rng
   streams and the float summation order of the measured interference
   stay what test/pin_*.golden pins. *)
let step t attempts =
  (* Fault layer, part 1: advance episodes and remove outaged attempts
     before anything else — a link in outage cannot transmit, so it
     neither collides nor radiates interference. *)
  (match t.faults with None -> () | Some f -> f.on_slot t.now);
  let attempts =
    match t.faults with
    | None -> attempts
    | Some f ->
      Intvec.clear t.v_filtered;
      for i = 0 to Intvec.length attempts - 1 do
        let e = Intvec.get attempts i in
        if not (f.outage e) then Intvec.push t.v_filtered e
      done;
      t.v_filtered
  in
  if Intvec.is_empty attempts then begin
    Intvec.clear t.v_succeeded;
    Trace.record t.trace ~attempted:attempts ~succeeded:t.v_succeeded;
    (match t.tel with None -> () | Some h -> Metrics.incr h.c_slots);
    t.now <- t.now + 1;
    t.v_succeeded
  end
  else begin
    (* Per-link exclusivity: a link carrying two packets in one slot is a
       collision at the link itself; neither packet gets through, but the
       transmission still radiates interference. The counts array is
       persistent scratch, cleared sparsely after adjudication. *)
    (* Index loops throughout, not [Intvec.iter]: a capturing closure
       would allocate every busy slot. *)
    Intvec.clear t.v_active;
    for i = 0 to Intvec.length attempts - 1 do
      let e = Intvec.get attempts i in
      assert (e >= 0 && e < t.m);
      if t.counts.(e) = 0 then Intvec.push t.v_active e;
      t.counts.(e) <- t.counts.(e) + 1
    done;
    (match t.tracker with
    | None -> ()
    | Some tracker ->
      (* Reverse first-occurrence order, the adjudication order. *)
      for i = Intvec.length t.v_active - 1 downto 0 do
        Load_tracker.add tracker (Intvec.get t.v_active i)
      done;
      Trace.record_interference t.trace (Load_tracker.interference tracker));
    Oracle.adjudicate ?rng:t.rng t.oracle ~active:t.v_active
      ~marks:t.counts ~winners:t.v_winners;
    Intvec.clear t.v_succeeded;
    for i = 0 to Intvec.length t.v_winners - 1 do
      let e = Intvec.get t.v_winners i in
      if t.counts.(e) = 1 then Intvec.push t.v_succeeded e
    done;
    (* Fault layer, part 2: jam / correlated-loss / degradation drops of
       adjudicated winners. These transmissions radiated interference
       and consumed the slot but fail after the fact; channel telemetry
       counts them as denied. The hook sees the winners in adjudication
       order (so any rng it consumes is drawn in that order), and the
       in-place compaction keeps the survivors in it. *)
    (match t.faults with
    | None -> ()
    | Some f ->
      let kept = ref 0 in
      let n = Intvec.length t.v_succeeded in
      for i = 0 to n - 1 do
        let e = Intvec.get t.v_succeeded i in
        let interference =
          match t.tracker with
          | None -> 0.
          | Some tracker ->
            (* attempt interference from other links: the tracker holds
               W·x over the distinct attempt set and the diagonal is
               pinned to 1, so subtract e's own unit. *)
            Float.max 0. (Load_tracker.interference_at tracker e -. 1.)
        in
        if not (f.drop ~link:e ~interference) then begin
          Intvec.set t.v_succeeded !kept e;
          incr kept
        end
      done;
      Intvec.truncate t.v_succeeded !kept);
    (match t.tracker with
    | None -> ()
    | Some tracker -> Load_tracker.reset tracker);
    (match t.tel with
    | None -> ()
    | Some h ->
      (* Attempt accounting: every attempt either succeeded, collided at
         its own link (count > 1), or was denied by the oracle. *)
      Metrics.incr h.c_slots;
      Metrics.incr h.c_busy;
      let attempts_n = Intvec.length attempts in
      let success_n = Intvec.length t.v_succeeded in
      let collision_n = ref 0 in
      for i = 0 to Intvec.length t.v_active - 1 do
        let e = Intvec.get t.v_active i in
        if t.counts.(e) > 1 then collision_n := !collision_n + t.counts.(e)
      done;
      Metrics.add h.c_attempts attempts_n;
      Metrics.add h.c_success success_n;
      Metrics.add h.c_collision !collision_n;
      Metrics.add h.c_denied (attempts_n - success_n - !collision_n));
    for i = 0 to Intvec.length t.v_active - 1 do
      t.counts.(Intvec.get t.v_active i) <- 0
    done;
    Trace.record t.trace ~attempted:attempts ~succeeded:t.v_succeeded;
    t.now <- t.now + 1;
    t.v_succeeded
  end

let idle t ~slots =
  assert (slots >= 0);
  for _ = 1 to slots do
    ignore (step t t.v_none)
  done
