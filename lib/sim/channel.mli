(** The slotted wireless channel.

    One {!step} is one time slot: callers submit the set of links attempting
    a transmission; the channel enforces per-link exclusivity (at most one
    packet per link per slot — the model's hard constraint), asks the
    {!Oracle} which of the remaining attempts succeed, and advances the
    global clock. *)

type t

(** A fault hook: the channel-side interface of the fault-injection
    layer ({!Dps_faults.Injector} builds these from a fault plan; the
    channel itself knows nothing about plans or episodes). All three
    closures are consulted by {!step}:

    - [on_slot slot] fires once at the start of every slot (busy or
      idle), before anything else — the injector uses it to open and
      close fault episodes;
    - [outage e] — when [true], link [e] cannot transmit this slot: its
      attempts are removed {e before} adjudication and radiate no
      interference (they fail without consuming channel accounting);
    - [drop ~link ~interference] — consulted for every transmission
      that survived adjudication; when [true] the transmission fails
      after the fact (it radiated interference and consumed the slot).
      [interference] is the measured attempt interference the link saw
      from {e other} distinct attempting links ([(W·x)(e) - 1] over the
      slot's attempt set), or [0.] when the channel has no measure.

    With no hook installed, {!step} behaves exactly as before — the
    fault path costs one [None] branch. *)
type faults = {
  on_slot : int -> unit;
  outage : int -> bool;
  drop : link:int -> interference:float -> bool;
}

(** [create ?rng ?measure ?telemetry ?faults ~oracle ~m ()] — a fresh
    channel.
    [rng] supplies the randomness stochastic oracles ({!Oracle.Lossy})
    need; deterministic oracles never consult it. When [measure] is given,
    the channel keeps a {!Dps_interference.Load_tracker} and records every
    busy slot's measured attempt interference [||W·attempts||_inf] (over
    the distinct attempting links — the set the oracle adjudicates) into
    the trace; see {!Trace.mean_interference}. When [telemetry] is given
    and enabled, every {!step} maintains the [channel.*] counters of
    docs/OBSERVABILITY.md ([channel.slots], [channel.busy_slots],
    [channel.attempts], and [channel.tx] labelled by outcome:
    success / collision / denied); otherwise the per-slot telemetry cost
    is a single branch. When [faults] is given its hook is applied to
    every slot as documented on {!faults} — transmissions it suppresses
    count as [outcome=denied] in the channel telemetry (the fault layer
    keeps its own [fault.*] split). [jobs] (default 1) is the stale-
    rescan fan-out handed to the channel's trackers — results are
    byte-identical whatever it is (docs/PARALLELISM.md). When the
    measure is ε-sparsified ([Measure.error_bound > 0]) and
    telemetry is enabled, the one-time gauge
    [channel.interference_error_bound] records how far below the true
    dense value each slot's recorded attempt interference can sit
    (attempt loads are 0/1, so the slack is exactly the measure's
    error bound) — verdicts stay auditable without densifying. Raises
    [Invalid_argument] if the measure size differs from [m] or
    [jobs < 1]. *)
val create :
  ?rng:Dps_prelude.Rng.t ->
  ?measure:Dps_interference.Measure.t ->
  ?telemetry:Dps_telemetry.Telemetry.t ->
  ?faults:faults ->
  ?jobs:int ->
  oracle:Oracle.t ->
  m:int ->
  unit ->
  t

(** The adjudication rule the channel was created with. *)
val oracle : t -> Oracle.t

(** Number of links [m]. *)
val size : t -> int

(** Current slot number (slots consumed so far). *)
val now : t -> int

(** Channel accounting so far. *)
val trace : t -> Trace.t

(** [step t attempts] — run one slot over the attempting link ids, in
    submission order. If a link id appears more than once, all of its
    attempts collide and fail, but they still contribute interference
    to the oracle. The oracle sees the distinct links in first-occurrence
    order (see {!Oracle.adjudicate} for the order it adjudicates them
    in). Returns the channel-owned vector of links that transmitted
    successfully, in adjudication order; it is valid only until the
    next step, so consume or copy it first. The steady-state path
    allocates no minor words (test/test_alloc.ml pins this). *)
val step : t -> Dps_prelude.Intvec.t -> Dps_prelude.Intvec.t

(** [idle t ~slots] — let [slots] empty slots pass. *)
val idle : t -> slots:int -> unit

(** The channel's scratch buffers, borrowed by the static algorithm
    driving it (single-borrower contract; see {!Scratch}). *)
val scratch : t -> Scratch.t
