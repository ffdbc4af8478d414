(** The dynamic scheduling protocol (Section 4).

    Time is divided into frames of [T] slots. A packet injected during frame
    [k] starts participating in frame [k + 1] (plus any initial delay the
    adversarial wrapper assigns). Every frame has two phases:

    - {b Phase 1}: the static algorithm is executed on the next hop of every
      live (never-failed) participating packet, for
      [T' = duration(m, J, m·J)] slots where [J = (1+ε)·λ·T] dimensions the
      expected per-frame interference. Packets that don't get through are
      marked {e failed} and join the failed buffer of the link they needed
      to cross.
    - {b Clean-up}: every link with a non-empty failed buffer independently
      selects, with probability [1/m], its longest-failed packet; the static
      algorithm is executed once more on the selected set. A cleaned-up
      packet that still has hops to go moves to the failed buffer of its
      next link — once failed, a packet completes its journey through
      clean-up phases only, exactly as in the paper.

    The remainder of the frame idles so frames stay aligned.

    Stability (Theorem 3) holds for λ < 1/f(m); latency (Theorem 8) is
    O(d·T) for never-failed packets of path length d. *)

type config = {
  algorithm : Dps_static.Algorithm.t;
  measure : Dps_interference.Measure.t;
  epsilon : float;  (** headroom: the protocol is dimensioned for (1-ε)/f(m) *)
  frame : int;  (** T, in slots *)
  phase1_budget : int;  (** T' *)
  cleanup_budget : int;
  cleanup_prob : float;  (** per-link selection probability, paper: 1/m *)
  max_hops : int;  (** D: longest admissible path *)
}

(** [configure ?epsilon ?chernoff_slack ?cleanup_prob ~algorithm ~measure
    ~lambda ~max_hops ()] sizes the frame for injection rate [lambda]: it
    finds the smallest [T] with
    [T >= duration(m, (1+ε)λT, m·(1+ε)λT) + cleanup + 1] (fixed-point
    search) that also satisfies the concentration floor
    [λ·T >= chernoff_slack/ε²] — the engineering form of the paper's
    [T >= 100·f(m)/ε³] requirement, making per-frame overloads rare enough
    for the clean-up phase. Raises [Invalid_argument] if no such [T] exists
    below 2^20 slots — i.e. [lambda] exceeds what the algorithm can sustain
    (its effective 1/f(m)). Defaults: [epsilon = 0.5],
    [chernoff_slack = 12.], [cleanup_prob = 1/m]. *)
val configure :
  ?epsilon:float ->
  ?chernoff_slack:float ->
  ?cleanup_prob:float ->
  algorithm:Dps_static.Algorithm.t ->
  measure:Dps_interference.Measure.t ->
  lambda:float ->
  max_hops:int ->
  unit ->
  config

(** [configure_with_frame ... ~frame ()] — like {!configure} but with an
    explicitly chosen frame length (used by the frame-sizing ablation).
    Budgets are recomputed for that frame; raises [Invalid_argument] when
    they do not fit. No concentration floor is enforced. *)
val configure_with_frame :
  ?epsilon:float ->
  ?cleanup_prob:float ->
  algorithm:Dps_static.Algorithm.t ->
  measure:Dps_interference.Measure.t ->
  lambda:float ->
  max_hops:int ->
  frame:int ->
  unit ->
  config

(** What the overload guard does with traffic arriving while tripped. *)
type shed_policy =
  | Drop_newest
      (** admit then discard: the packet counts as injected {e and} shed,
          so [injected = delivered + in_flight + shed] *)
  | Reject_admission
      (** turn away at the door: shed only, so
          [injected = delivered + in_flight] is preserved *)

(** Overload guard: hysteresis watermarks on the failed-buffer potential
    Φ (see DESIGN.md §9). Evaluated at frame boundaries: Φ ≥ [high]
    trips the guard and arriving traffic is shed (per the policy) until
    Φ ≤ [low], at which point a {!recovery} interval is recorded. *)
type guard

(** [guard ?policy ~high ~low ()] — watermarks in units of Φ (remaining
    hops over failed packets). Raises [Invalid_argument] unless
    [0 <= low < high]. Default policy: {!Drop_newest}. *)
val guard : ?policy:shed_policy -> high:int -> low:int -> unit -> guard

(** One closed overload episode: the guard tripped at the end of frame
    [onset_frame] and cleared at the end of frame [clear_frame];
    time-to-drain is [clear_frame - onset_frame] frames. *)
type recovery = { onset_frame : int; clear_frame : int }

(** Per-run report. All series have one point per frame. *)
type report = {
  frames : int;
  injected : int;
  delivered : int;
  failed_events : int;  (** phase-1 failures (packets, counted once) *)
  shed : int;  (** packets shed by the overload guard (0 without one) *)
  overload_frames : int;  (** frames ending with the guard tripped *)
  recoveries : recovery list;  (** closed overload episodes, in order *)
  in_system : Dps_prelude.Timeseries.t;  (** undelivered packets *)
  failed_queue : Dps_prelude.Timeseries.t;  (** Σ failed-buffer sizes *)
  potential : Dps_prelude.Timeseries.t;
      (** Φ: Σ remaining hops over failed packets *)
  failed_interference : Dps_prelude.Timeseries.t;
      (** [||W·R_failed||_inf] over the per-link failed-buffer loads,
          maintained incrementally by a {!Dps_interference.Load_tracker} *)
  latency : Dps_prelude.Histogram.t;  (** delivery latency, in slots *)
  max_queue : int;
}

type t

(** [create ?telemetry ?packet_trace ?guard config ~channel] — fresh
    protocol state bound to a channel. When [telemetry] is given and
    enabled, every frame emits a [protocol.frame] span and maintains the
    [protocol.*] counters, gauges and the latency histogram of
    docs/OBSERVABILITY.md; when absent or disabled no handles are
    resolved and the per-frame cost is a single branch (telemetry never
    consumes randomness, so reports are bit-identical either way —
    pinned by the determinism goldens). When [guard] is given, the
    overload guard runs at every frame boundary and — with telemetry —
    additionally maintains [protocol.guard.active] /
    [protocol.guard.shed] and emits
    [guard.overload.start]/[guard.overload.end] point events; without a
    guard none of those handles are resolved, keeping unguarded traces
    byte-identical to earlier versions.

    [packet_trace = k] (with enabled telemetry) additionally emits the
    per-packet lifecycle events of schema v2 — [packet.inject],
    [packet.hop], [packet.deliver] and (under a guard) [packet.shed] —
    for the deterministic head-based sample [id mod k = 0] ([k = 1]
    traces every packet). Sampling is sticky for a packet's lifetime, so
    sampled traces contain complete lifecycles. Hop and deliver events
    are stamped with the end slot of the phase that served (or failed)
    the packet — per-request slots are internal to the static
    algorithms — which is the same slot delivery latency is measured
    against. Packet tracing never consumes randomness either; without
    it no [packet.*] line is emitted and traces are unchanged.

    [on_deliver] is called synchronously on every delivery with the
    packet's stable id and its latency in slots — the hook the serving
    layer uses for per-tenant accounting without paying for full packet
    tracing. It must not raise, consume randomness, or re-enter the
    protocol; with [None] the delivery path costs one branch and
    reports stay bit-identical.

    [jobs] (default 1) is the stale-rescan fan-out for the failed-buffer
    tracker; results are byte-identical whatever it is
    (docs/PARALLELISM.md).

    When the measure is ε-sparsified
    ([Dps_interference.Measure.error_bound > 0]) and telemetry is
    enabled, every frame sets the gauge
    [protocol.failed_interference.error_bound] to
    [error_bound · ‖failed load‖∞] — the most the true dense
    failed-buffer interference can exceed the recorded
    [protocol.failed_interference]. Dense measures resolve no extra
    handle and their snapshots are unchanged.

    Raises [Invalid_argument] if the channel and measure disagree on
    [m], if [packet_trace < 1] (checked even when telemetry is
    disabled, so a bad sampling rate fails loudly), or if [jobs < 1]. *)
val create :
  ?telemetry:Dps_telemetry.Telemetry.t ->
  ?packet_trace:int ->
  ?guard:guard ->
  ?on_deliver:(id:int -> latency:int -> unit) ->
  ?jobs:int ->
  config ->
  channel:Dps_sim.Channel.t ->
  t

val config : t -> config

(** [run_frame t rng ~inject_slot] — execute one full frame.
    [inject_slot slot] is called once per slot of the frame, in order, and
    returns the traffic arriving at that slot as [(path, extra_delay)]
    pairs: the packet starts participating [extra_delay] frames after the
    next frame boundary ([0] for plain injection; the adversarial wrapper
    of Section 5 passes its random initial delay here). Raises
    [Invalid_argument] if a path exceeds [max_hops], is empty, or an
    [extra_delay] is negative — injection is validated, not asserted, so
    a bad traffic source fails loudly in release builds too. *)
val run_frame :
  t ->
  Dps_prelude.Rng.t ->
  inject_slot:(int -> (Dps_network.Path.t * int) list) ->
  unit

(** [report t] — snapshot of the statistics so far. *)
val report : t -> report

(** Current frame index (frames completed). *)
val frame_index : t -> int

(** Packets currently in the system (live + failed + waiting). *)
val in_flight : t -> int

(** Whether the overload guard is currently tripped (always [false]
    without a guard). *)
val overloaded : t -> bool

(** Packets shed by the overload guard so far. *)
val shed : t -> int

(** Current failed-buffer potential Φ (Σ remaining hops over failed
    packets) — the quantity guard watermarks are expressed in. O(1);
    the serving layer reads it at frame boundaries to drive class-aware
    admission ({!Dps_faults.Class_guard}). *)
val potential : t -> int

(** The id the next injected packet will receive. Ids are allocated
    sequentially in arrival order, so a caller that controls the whole
    traffic source (the serving engine does) can predict the ids of the
    packets it is about to inject and attribute {!create}[~on_deliver]
    callbacks without any per-packet side channel. *)
val next_packet_id : t -> int
