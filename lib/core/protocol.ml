module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Timeseries = Dps_prelude.Timeseries
module Histogram = Dps_prelude.Histogram
module Measure = Dps_interference.Measure
module Load_tracker = Dps_interference.Load_tracker
module Path = Dps_network.Path
module Channel = Dps_sim.Channel
module Arena = Dps_sim.Packet_arena
module Algorithm = Dps_static.Algorithm
module Request = Dps_static.Request
module Telemetry = Dps_telemetry.Telemetry
module Metrics = Dps_telemetry.Metrics
module Event = Dps_telemetry.Event

type config = {
  algorithm : Algorithm.t;
  measure : Measure.t;
  epsilon : float;
  frame : int;
  phase1_budget : int;
  cleanup_budget : int;
  cleanup_prob : float;
  max_hops : int;
}

let budgets_for (algorithm : Algorithm.t) measure ~epsilon ~lambda ~frame =
  let m = Measure.size measure in
  let j = (1. +. epsilon) *. lambda *. float_of_int frame in
  let n = Int.max 1 (int_of_float (Float.ceil (float_of_int m *. j))) in
  let phase1 = algorithm.Algorithm.duration ~m ~i:(Float.max j 1.) ~n in
  let cleanup = algorithm.Algorithm.duration ~m ~i:1. ~n in
  (phase1, cleanup)

let max_frame = 1 lsl 20

let configure ?(epsilon = 0.5) ?(chernoff_slack = 12.) ?cleanup_prob
    ~algorithm ~measure ~lambda ~max_hops () =
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Protocol.configure: epsilon outside (0, 1]";
  if lambda <= 0. then invalid_arg "Protocol.configure: lambda <= 0";
  if max_hops < 1 then invalid_arg "Protocol.configure: max_hops < 1";
  let m = Measure.size measure in
  let cleanup_prob =
    Option.value ~default:(1. /. float_of_int m) cleanup_prob
  in
  (* The paper's T >= 100·f(m)/ε³ exists to make per-frame loads
     concentrate: overload events beyond (1+ε)·λ·T must be rare enough for
     the 1/m-rate clean-up phase to absorb them. The engineering version of
     that requirement is λ·T >= chernoff_slack/ε², i.e. the Chernoff
     exponent ε²·λT/3 is a decent constant. *)
  let concentration_floor =
    int_of_float (Float.ceil (chernoff_slack /. (epsilon *. epsilon *. lambda)))
  in
  (* Smallest frame (up to geometric granularity) that fits both phases:
     T >= T'(T) + cleanup(T) + 1. *)
  let rec search frame =
    if frame > max_frame then
      invalid_arg
        "Protocol.configure: no stable frame length; lambda exceeds the \
         algorithm's sustainable rate"
    else begin
      let phase1, cleanup =
        budgets_for algorithm measure ~epsilon ~lambda ~frame
      in
      if phase1 + cleanup + 1 <= frame && frame >= concentration_floor then
        { algorithm;
          measure;
          epsilon;
          frame;
          phase1_budget = phase1;
          cleanup_budget = cleanup;
          cleanup_prob;
          max_hops }
      else search (Int.max (frame + 1) (frame * 13 / 10))
    end
  in
  search 8

let configure_with_frame ?(epsilon = 0.5) ?cleanup_prob ~algorithm ~measure
    ~lambda ~max_hops ~frame () =
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Protocol.configure_with_frame: epsilon outside (0, 1]";
  if lambda <= 0. then invalid_arg "Protocol.configure_with_frame: lambda <= 0";
  if max_hops < 1 then invalid_arg "Protocol.configure_with_frame: max_hops < 1";
  let m = Measure.size measure in
  let cleanup_prob =
    Option.value ~default:(1. /. float_of_int m) cleanup_prob
  in
  let phase1, cleanup = budgets_for algorithm measure ~epsilon ~lambda ~frame in
  if phase1 + cleanup + 1 > frame then
    invalid_arg "Protocol.configure_with_frame: frame too short for budgets";
  { algorithm;
    measure;
    epsilon;
    frame;
    phase1_budget = phase1;
    cleanup_budget = cleanup;
    cleanup_prob;
    max_hops }

type shed_policy = Drop_newest | Reject_admission

type guard = { high : int; low : int; policy : shed_policy }

let guard ?(policy = Drop_newest) ~high ~low () =
  if high <= 0 then invalid_arg "Protocol.guard: high <= 0";
  if low < 0 || low >= high then
    invalid_arg "Protocol.guard: low outside [0, high)";
  { high; low; policy }

type recovery = { onset_frame : int; clear_frame : int }

type report = {
  frames : int;
  injected : int;
  delivered : int;
  failed_events : int;
  shed : int;
  overload_frames : int;
  recoveries : recovery list;
  in_system : Timeseries.t;
  failed_queue : Timeseries.t;
  potential : Timeseries.t;
  failed_interference : Timeseries.t;
  latency : Histogram.t;
  max_queue : int;
}

(* Pre-resolved telemetry handles (metric catalogue: docs/OBSERVABILITY.md).
   Resolved once in [create] when telemetry is enabled; [None] otherwise,
   so the per-frame emission cost without telemetry is one match. *)
type tel = {
  tel_t : Telemetry.t;
  c_frames : Metrics.counter;
  c_injected : Metrics.counter;
  c_delivered : Metrics.counter;
  c_phase1_failures : Metrics.counter;
  c_phase1_slots : Metrics.counter;
  c_cleanup_slots : Metrics.counter;
  c_idle_slots : Metrics.counter;
  g_in_system : Metrics.gauge;
  g_failed : Metrics.gauge;
  g_potential : Metrics.gauge;
  g_failed_interference : Metrics.gauge;
  g_max_queue : Metrics.gauge;
  h_latency : Metrics.histogram;
}

(* Guard telemetry handles, resolved only when a guard is installed so
   unguarded traced runs keep their metric snapshots byte-identical. *)
type gtel = {
  gt_t : Telemetry.t;
  g_guard_active : Metrics.gauge;
  c_shed : Metrics.counter;
}

(* Sparse-measure error telemetry, resolved only when the measure is
   ε-sparsified (Measure.error_bound > 0) so dense runs keep
   their metric snapshots byte-identical. *)
type etel = { e_bound : float; g_failed_error : Metrics.gauge }

(* Packet-lifecycle tracing (schema v2, docs/OBSERVABILITY.md). Resolved
   only when both telemetry and packet tracing are requested, so runs
   without [--trace-packets] emit no [packet.*] lines and stay
   byte-identical to schema-v1 traces modulo the version stamp. *)
type ptel = {
  pt_t : Telemetry.t;
  pt_every : int;  (* head-based sampling: trace ids with id mod k = 0 *)
}

(* Packets live in a preallocated structure-of-arrays arena and are
   referred to by int handles everywhere below; handles are recycled on
   delivery. The live set is an index vector stored TAIL-FIRST: index 0
   is the oldest packet and [push] adds the newest, so the newest-first
   processing order is a backward scan. The per-link failed buffers are
   intrusive FIFOs threaded through the arena's [next] field
   ([failed_head]/[failed_tail], -1 = empty). Steady-state frames
   allocate no minor words (test/test_alloc.ml pins this); every
   processing order below is one test/pin_*.golden pins. *)
type t = {
  cfg : config;
  channel : Channel.t;
  arena : Arena.t;
  on_deliver : (id:int -> latency:int -> unit) option;
  tel : tel option;
  guard : guard option;
  gtel : gtel option;
  etel : etel option;
  ptel : ptel option;
  mutable overloaded : bool;
  mutable overload_onset : int;
  mutable shed : int;
  mutable overload_frames : int;
  mutable recoveries_rev : recovery list;
  mutable frame_idx : int;
  live : Intvec.t;  (* never-failed, undelivered; tail-first (see above) *)
  failed_head : int array;  (* per link, oldest failure first; -1 = empty *)
  failed_tail : int array;
  (* Phase-1 / clean-up working vectors, reused every frame. *)
  parts : Intvec.t;
  waiting : Intvec.t;
  survivors : Intvec.t;
  offered_links : Intvec.t;
  offered_pkts : Intvec.t;
  (* Failed-buffer tallies, maintained incrementally at every enqueue and
     dequeue so per-frame statistics cost O(1) instead of a scan over all
     m buffers (and all failed packets, for the potential). *)
  mutable failed_total : int;
  mutable failed_potential : int;  (* Φ: Σ remaining hops over failed *)
  failed_tracker : Load_tracker.t;  (* per-link failed-buffer loads *)
  mutable injected : int;
  mutable delivered : int;
  mutable failed_events : int;
  mutable next_id : int;
  in_system : Timeseries.t;
  failed_queue : Timeseries.t;
  potential : Timeseries.t;
  failed_interference : Timeseries.t;
  latency : Histogram.t;
  mutable max_queue : int;
}

let create ?telemetry ?packet_trace ?guard ?on_deliver ?(jobs = 1) cfg
    ~channel =
  if Channel.size channel <> Measure.size cfg.measure then
    invalid_arg "Protocol.create: channel and measure sizes differ";
  if jobs < 1 then invalid_arg "Protocol.create: jobs must be >= 1";
  (match packet_trace with
  | Some k when k < 1 -> invalid_arg "Protocol.create: packet_trace < 1"
  | _ -> ());
  let tel =
    match telemetry with
    | Some tl when Telemetry.enabled tl ->
      let reg = Telemetry.metrics tl in
      Some
        { tel_t = tl;
          c_frames = Metrics.counter reg "protocol.frames";
          c_injected = Metrics.counter reg "protocol.injected";
          c_delivered = Metrics.counter reg "protocol.delivered";
          c_phase1_failures = Metrics.counter reg "protocol.phase1.failures";
          c_phase1_slots = Metrics.counter reg "protocol.phase1.slots";
          c_cleanup_slots = Metrics.counter reg "protocol.cleanup.slots";
          c_idle_slots = Metrics.counter reg "protocol.idle.slots";
          g_in_system = Metrics.gauge reg "protocol.queue.in_system";
          g_failed = Metrics.gauge reg "protocol.queue.failed";
          g_potential = Metrics.gauge reg "protocol.potential";
          g_failed_interference =
            Metrics.gauge reg "protocol.failed_interference";
          g_max_queue = Metrics.gauge reg "protocol.queue.max";
          h_latency = Metrics.histogram reg "protocol.latency.slots" }
    | _ -> None
  in
  let gtel =
    match (guard, telemetry) with
    | Some _, Some tl when Telemetry.enabled tl ->
      let reg = Telemetry.metrics tl in
      Some
        { gt_t = tl;
          g_guard_active = Metrics.gauge reg "protocol.guard.active";
          c_shed = Metrics.counter reg "protocol.guard.shed" }
    | _ -> None
  in
  let etel =
    match telemetry with
    | Some tl
      when Telemetry.enabled tl && Measure.error_bound cfg.measure > 0. ->
      Some
        { e_bound = Measure.error_bound cfg.measure;
          g_failed_error =
            Metrics.gauge (Telemetry.metrics tl)
              "protocol.failed_interference.error_bound" }
    | _ -> None
  in
  let ptel =
    match (packet_trace, telemetry) with
    | Some k, Some tl when Telemetry.enabled tl ->
      Some { pt_t = tl; pt_every = k }
    | _ -> None
  in
  { cfg;
    channel;
    arena = Arena.create ();
    on_deliver;
    tel;
    guard;
    gtel;
    etel;
    ptel;
    overloaded = false;
    overload_onset = 0;
    shed = 0;
    overload_frames = 0;
    recoveries_rev = [];
    frame_idx = 0;
    live = Intvec.create ();
    failed_head = Array.make (Measure.size cfg.measure) (-1);
    failed_tail = Array.make (Measure.size cfg.measure) (-1);
    parts = Intvec.create ();
    waiting = Intvec.create ();
    survivors = Intvec.create ();
    offered_links = Intvec.create ();
    offered_pkts = Intvec.create ();
    failed_total = 0;
    failed_potential = 0;
    failed_tracker = Load_tracker.create ~jobs cfg.measure;
    injected = 0;
    delivered = 0;
    failed_events = 0;
    next_id = 0;
    in_system = Timeseries.create ();
    failed_queue = Timeseries.create ();
    potential = Timeseries.create ();
    failed_interference = Timeseries.create ();
    latency = Histogram.create ~reservoir:65536 ();
    max_queue = 0 }

let config t = t.cfg

let frame_index t = t.frame_idx

let in_flight t = Intvec.length t.live + t.failed_total
let overloaded t = t.overloaded
let shed t = t.shed
let potential t = t.failed_potential
let next_packet_id t = t.next_id

(* The two failed-buffer mutation points. Every enqueue/dequeue keeps the
   running totals, the potential and the per-link load tracker in sync. *)
let enqueue_failed t p =
  let link = Arena.next_link t.arena p in
  Arena.set_next t.arena p (-1);
  (match t.failed_tail.(link) with
  | -1 -> t.failed_head.(link) <- p
  | tail -> Arena.set_next t.arena tail p);
  t.failed_tail.(link) <- p;
  t.failed_total <- t.failed_total + 1;
  t.failed_potential <- t.failed_potential + Arena.remaining_hops t.arena p;
  Load_tracker.add t.failed_tracker link

let dequeue_failed t link =
  let p = t.failed_head.(link) in
  assert (p >= 0);
  let n = Arena.next t.arena p in
  t.failed_head.(link) <- n;
  if n = -1 then t.failed_tail.(link) <- -1;
  t.failed_total <- t.failed_total - 1;
  t.failed_potential <- t.failed_potential - Arena.remaining_hops t.arena p;
  Load_tracker.remove t.failed_tracker link;
  p

(* Head-based sampling is sticky for a packet's whole lifetime: every
   [packet.*] emission site tests [id mod pt_every = 0], so a sampled
   trace contains complete lifecycles, never partial ones. *)
let record_delivery t rng p =
  t.delivered <- t.delivered + 1;
  let l = Arena.latency t.arena p in
  assert (l >= 0);
  (match t.on_deliver with
  | None -> ()
  | Some f -> f ~id:(Arena.id t.arena p) ~latency:l);
  Histogram.add t.latency rng (float_of_int l);
  (match t.tel with
  | None -> ()
  | Some h -> Metrics.observe h.h_latency (float_of_int l));
  match t.ptel with
  | Some pt when Arena.id t.arena p mod pt.pt_every = 0 ->
    Telemetry.point pt.pt_t ~name:"packet.deliver" ~frame:t.frame_idx
      ~slot:(Arena.delivered_slot t.arena p)
      [ ("id", Event.Int (Arena.id t.arena p));
        ("d", Event.Int (Path.length (Arena.path t.arena p)));
        ("latency", Event.Int l);
        ("failed", Event.Bool (Arena.failed t.arena p)) ]
  | _ -> ()

(* Shared empty result so packet-free frames allocate nothing. *)
let empty_outcome = { Algorithm.served = [||]; slots_used = 0 }

(* Hop events carry the phase-end slot — per-request slot attribution
   is internal to the static algorithms, and [now] is the same slot
   [Arena.advance] stamps on deliveries (docs/OBSERVABILITY.md). Not a
   local closure: closure capture would allocate even on empty frames. *)
let emit_hop t p ~now ~phase ~ok =
  match t.ptel with
  | Some pt when Arena.id t.arena p mod pt.pt_every = 0 ->
    Telemetry.point pt.pt_t ~name:"packet.hop" ~frame:t.frame_idx ~slot:now
      [ ("id", Event.Int (Arena.id t.arena p));
        ("hop", Event.Int (Arena.hop t.arena p));
        ("link", Event.Int (Arena.next_link t.arena p));
        ("phase", Event.Str phase);
        ("ok", Event.Bool ok) ]
  | _ -> ()

(* Phase 1: one shot of the static algorithm on every participating live
   packet's next hop. Failures become "failed" and join their link buffer.

   Order bookkeeping (the orders test/pin_*.golden pins): [live] is
   tail-first, so the backward scan visits packets newest first, making
   [parts] and [waiting] newest-first, and request [idx] is
   [parts.(idx)]. The rebuilt [live], tail-first, is [waiting] reversed
   followed by the survivors in ascending request order: the next
   frame's newest-first scan sees the survivors in descending request
   order, then the waiting packets newest first. *)
let phase1 t rng =
  let a = t.arena in
  Intvec.clear t.parts;
  Intvec.clear t.waiting;
  (* Index loops, not [Intvec.iter] — closures would allocate per frame. *)
  for i = Intvec.length t.live - 1 downto 0 do
    let p = Intvec.get t.live i in
    if Arena.release_frame a p <= t.frame_idx then Intvec.push t.parts p
    else Intvec.push t.waiting p
  done;
  let n = Intvec.length t.parts in
  let outcome =
    if n = 0 then empty_outcome
    else begin
      let requests =
        Array.init n (fun idx ->
            Request.make
              ~link:(Arena.next_link a (Intvec.get t.parts idx))
              ~key:idx)
      in
      t.cfg.algorithm.Algorithm.run ~channel:t.channel ~rng
        ~measure:t.cfg.measure ~requests ~budget:t.cfg.phase1_budget
    end
  in
  let now = Channel.now t.channel in
  Intvec.clear t.survivors;
  for idx = 0 to n - 1 do
    let p = Intvec.get t.parts idx in
    if outcome.Algorithm.served.(idx) then begin
      emit_hop t p ~now ~phase:"phase1" ~ok:true;
      Arena.advance a p ~slot:now;
      if Arena.delivered a p then begin
        record_delivery t rng p;
        Arena.free a p
      end
      else Intvec.push t.survivors p
    end
    else begin
      emit_hop t p ~now ~phase:"phase1" ~ok:false;
      t.failed_events <- t.failed_events + 1;
      Arena.set_failed a p;
      enqueue_failed t p
    end
  done;
  Intvec.clear t.live;
  for i = Intvec.length t.waiting - 1 downto 0 do
    Intvec.push t.live (Intvec.get t.waiting i)
  done;
  for i = 0 to Intvec.length t.survivors - 1 do
    Intvec.push t.live (Intvec.get t.survivors i)
  done

(* Clean-up: each link with failed packets independently offers its oldest
   one with probability [cleanup_prob]; one more execution of the static
   algorithm serves the offered set.

   The Bernoulli draws run in ascending link order, while the request
   array, and everything downstream, sees the offered links in
   DESCENDING order: the orders test/pin_*.golden pins. [offered_links]
   keeps the ascending scan order and the serve loop walks it
   backwards. *)
let cleanup t rng =
  let a = t.arena in
  Intvec.clear t.offered_links;
  Intvec.clear t.offered_pkts;
  for link = 0 to Array.length t.failed_head - 1 do
    if t.failed_head.(link) >= 0 && Rng.bernoulli rng t.cfg.cleanup_prob
    then begin
      Intvec.push t.offered_links link;
      Intvec.push t.offered_pkts t.failed_head.(link)
    end
  done;
  let k = Intvec.length t.offered_links in
  if k > 0 then begin
    let requests =
      Array.init k (fun idx ->
          Request.make
            ~link:(Intvec.get t.offered_links (k - 1 - idx))
            ~key:idx)
    in
    let outcome =
      t.cfg.algorithm.Algorithm.run ~channel:t.channel ~rng
        ~measure:t.cfg.measure ~requests ~budget:t.cfg.cleanup_budget
    in
    let now = Channel.now t.channel in
    for idx = 0 to k - 1 do
      let j = k - 1 - idx in
      let link = Intvec.get t.offered_links j in
      let p = Intvec.get t.offered_pkts j in
      if outcome.Algorithm.served.(idx) then begin
        let popped = dequeue_failed t link in
        (* Offers peeked the FIFO heads before the algorithm ran; nothing
           enqueues at a head, so each offered packet is still first in
           line when served. *)
        assert (popped = p);
        emit_hop t p ~now ~phase:"cleanup" ~ok:true;
        Arena.advance a p ~slot:now;
        if Arena.delivered a p then begin
          record_delivery t rng p;
          Arena.free a p
        end
        else enqueue_failed t p
      end
      else emit_hop t p ~now ~phase:"cleanup" ~ok:false
    done
  end

let inject_packet t path ~slot ~extra_delay =
  if extra_delay < 0 then invalid_arg "Protocol: negative extra_delay";
  if Path.length path > t.cfg.max_hops then
    invalid_arg "Protocol: injected path longer than max_hops";
  if Path.length path = 0 then invalid_arg "Protocol: empty path";
  (* Every arrival gets an id — including shed ones, so [packet.shed]
     events carry a real id and sampled traces see drops too. Shedding
     never consumes randomness, so id allocation is the only state a shed
     arrival touches and reports stay bit-identical to earlier versions
     (ids are internal; nothing external observes their values). *)
  let id = t.next_id in
  t.next_id <- id + 1;
  (* Overload shedding: while the guard is tripped, arriving traffic is
     shed instead of queued. Drop-newest admits then discards (the packet
     counts as injected and as shed); reject-at-admission turns it away at
     the door (shed only) — so conservation reads
     [injected = delivered + in_flight + shed] under drop-newest and
     [injected = delivered + in_flight] under rejection. *)
  let shed_now =
    match t.guard with
    | Some g when t.overloaded ->
      (match g.policy with
      | Drop_newest -> t.injected <- t.injected + 1
      | Reject_admission -> ());
      t.shed <- t.shed + 1;
      (match t.gtel with None -> () | Some gt -> Metrics.incr gt.c_shed);
      (match t.ptel with
      | Some pt when id mod pt.pt_every = 0 ->
        Telemetry.point pt.pt_t ~name:"packet.shed" ~frame:t.frame_idx ~slot
          [ ("id", Event.Int id);
            ("d", Event.Int (Path.length path));
            ("policy",
             Event.Str
               (match g.policy with
               | Drop_newest -> "drop-newest"
               | Reject_admission -> "reject")) ]
      | _ -> ());
      true
    | _ -> false
  in
  if not shed_now then begin
    let p = Arena.alloc t.arena ~id ~path ~injected_slot:slot in
    Arena.set_release_frame t.arena p (t.frame_idx + 1 + extra_delay);
    t.injected <- t.injected + 1;
    Intvec.push t.live p;
    match t.ptel with
    | Some pt when id mod pt.pt_every = 0 ->
      Telemetry.point pt.pt_t ~name:"packet.inject" ~frame:t.frame_idx ~slot
        [ ("id", Event.Int id);
          ("link", Event.Int (Path.hop path 0));
          ("d", Event.Int (Path.length path));
          ("delay", Event.Int extra_delay) ]
    | _ -> ()
  end

let rec inject_arrivals t arrivals ~slot =
  match arrivals with
  | [] -> ()
  | (path, extra_delay) :: rest ->
    inject_packet t path ~slot ~extra_delay;
    inject_arrivals t rest ~slot

let run_frame t rng ~inject_slot =
  let frame_start = Channel.now t.channel in
  let injected0 = t.injected in
  let delivered0 = t.delivered in
  let failures0 = t.failed_events in
  (* Traffic arriving during this frame: drawn up front (arrivals are
     independent of the channel), stamped with their true arrival slot.
     [inject_arrivals] is top level: a per-slot closure here would defeat
     the zero-allocation steady state. *)
  for off = 0 to t.cfg.frame - 1 do
    let slot = frame_start + off in
    inject_arrivals t (inject_slot slot) ~slot
  done;
  phase1 t rng;
  let phase1_end = Channel.now t.channel in
  cleanup t rng;
  let cleanup_end = Channel.now t.channel in
  let consumed = cleanup_end - frame_start in
  assert (consumed <= t.cfg.frame);
  Channel.idle t.channel ~slots:(t.cfg.frame - consumed);
  (* Frame statistics — all O(1) from the running tallies. *)
  let fq = t.failed_total in
  let total = Intvec.length t.live + fq in
  let phi = t.failed_potential in
  let wr = Load_tracker.interference t.failed_tracker in
  (* Sparse-measure auditability: the dense failed-buffer interference
     exceeds [wr] by at most error_bound · ‖R‖∞ where R is the current
     failed-buffer load. Computed only when the measure has nonzero
     slack, so dense frames are untouched. *)
  (match t.etel with
  | None -> ()
  | Some et ->
    Metrics.set et.g_failed_error
      (et.e_bound *. Load_tracker.max_load t.failed_tracker));
  Timeseries.add_int t.in_system total;
  Timeseries.add_int t.failed_queue fq;
  Timeseries.add_int t.potential phi;
  Timeseries.add t.failed_interference wr;
  if total > t.max_queue then t.max_queue <- total;
  (match t.tel with
  | None -> ()
  | Some h ->
    Metrics.incr h.c_frames;
    Metrics.add h.c_injected (t.injected - injected0);
    Metrics.add h.c_delivered (t.delivered - delivered0);
    Metrics.add h.c_phase1_failures (t.failed_events - failures0);
    Metrics.add h.c_phase1_slots (phase1_end - frame_start);
    Metrics.add h.c_cleanup_slots (cleanup_end - phase1_end);
    Metrics.add h.c_idle_slots (t.cfg.frame - consumed);
    Metrics.set h.g_in_system (float_of_int total);
    Metrics.set h.g_failed (float_of_int fq);
    Metrics.set h.g_potential (float_of_int phi);
    Metrics.set h.g_failed_interference wr;
    Metrics.set h.g_max_queue (float_of_int t.max_queue);
    Telemetry.span h.tel_t ~name:"protocol.frame" ~frame:t.frame_idx
      ~slot_start:frame_start
      ~slot_end:(Channel.now t.channel)
      [ ("injected", Event.Int (t.injected - injected0));
        ("delivered", Event.Int (t.delivered - delivered0));
        ("phase1_failures", Event.Int (t.failed_events - failures0));
        ("phase1_slots", Event.Int (phase1_end - frame_start));
        ("cleanup_slots", Event.Int (cleanup_end - phase1_end));
        ("in_system", Event.Int total);
        ("failed_queue", Event.Int fq);
        ("potential", Event.Int phi);
        ("failed_interference", Event.Float wr) ]);
  (* Overload guard: hysteresis on the failed-buffer potential Φ, updated
     at frame boundaries. Crossing [high] trips the guard (shedding starts
     with the next frame's arrivals); draining to [low] clears it and
     closes a recovery interval. *)
  (match t.guard with
  | None -> ()
  | Some g ->
    if (not t.overloaded) && phi >= g.high then begin
      t.overloaded <- true;
      t.overload_onset <- t.frame_idx;
      match t.gtel with
      | None -> ()
      | Some gt ->
        Telemetry.point gt.gt_t ~name:"guard.overload.start"
          ~frame:t.frame_idx
          ~slot:(Channel.now t.channel)
          [ ("potential", Event.Int phi); ("high", Event.Int g.high) ]
    end
    else if t.overloaded && phi <= g.low then begin
      t.overloaded <- false;
      let rec_ = { onset_frame = t.overload_onset; clear_frame = t.frame_idx } in
      t.recoveries_rev <- rec_ :: t.recoveries_rev;
      match t.gtel with
      | None -> ()
      | Some gt ->
        Telemetry.point gt.gt_t ~name:"guard.overload.end" ~frame:t.frame_idx
          ~slot:(Channel.now t.channel)
          [ ("potential", Event.Int phi);
            ("onset_frame", Event.Int rec_.onset_frame);
            ("drain_frames", Event.Int (rec_.clear_frame - rec_.onset_frame));
            ("shed", Event.Int t.shed) ]
    end;
    if t.overloaded then t.overload_frames <- t.overload_frames + 1;
    match t.gtel with
    | None -> ()
    | Some gt ->
      Metrics.set gt.g_guard_active (if t.overloaded then 1. else 0.));
  t.frame_idx <- t.frame_idx + 1

let report t =
  { frames = t.frame_idx;
    injected = t.injected;
    delivered = t.delivered;
    failed_events = t.failed_events;
    shed = t.shed;
    overload_frames = t.overload_frames;
    recoveries = List.rev t.recoveries_rev;
    in_system = t.in_system;
    failed_queue = t.failed_queue;
    potential = t.potential;
    failed_interference = t.failed_interference;
    latency = t.latency;
    max_queue = t.max_queue }
