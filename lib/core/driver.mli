(** One-call simulation driver: protocol + channel + injection source.

    Wires a configured protocol to a fresh channel, feeds it from either
    injection model for a number of frames, and returns the report. This is
    the entry point the examples, the CLI and the benchmark harness share.

    The [_traced] variants take a telemetry bundle and an explicit snapshot
    period; the plain variants are equivalent to passing
    [Dps_telemetry.Telemetry.disabled] and cost nothing extra. *)

type source =
  | Stochastic of Dps_injection.Stochastic.t
  | Adversarial of Dps_injection.Adversary.t
      (** driven through the Section 5 random-initial-delay wrapper *)
  | Silent  (** no traffic; useful for draining tests *)

(** Raised {e into} a run by a signal-handling front end (dps_run /
    dps_serve convert SIGINT/SIGTERM to this): the frame loop stops
    where the signal landed, a final metrics snapshot is emitted for
    the partial period, sinks are flushed, and the exception propagates
    to the caller — so an interrupted run leaves a coherent trace
    instead of dropping buffered lines. *)
exception Interrupted

(** [run ~config ~oracle ~source ~frames ~rng] — run the protocol for
    [frames] frames and report. A fresh channel is created from [oracle].
    To install the overload guard ({!Protocol.guard}) use {!run_faulted}
    — with {!Dps_faults.Plan.empty} when no faults are wanted; an empty
    plan reproduces this function bit for bit. *)
val run :
  config:Protocol.config ->
  oracle:Dps_sim.Oracle.t ->
  source:source ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  Protocol.report

(** [run_traced ~telemetry ~metrics_every ~config ~oracle ~source ~frames
    ~rng] — like {!run}, with instrumentation. When [telemetry] is
    enabled, the channel and protocol are instrumented (see their [create]
    functions), a [driver.run] span closes the run, a final metrics
    snapshot is emitted, and — with [metrics_every = n > 0] — an
    intermediate snapshot is emitted every [n] frames, so long runs are
    observable while they execute ([metrics_every = 0] means final snapshot
    only). Sinks are flushed at the end of the run — also when a frame
    raises mid-run ([Fun.protect]), so the events emitted up to the
    failure reach the sinks — but {e not} closed; that stays with whoever
    opened them. [packet_trace = k] turns on the per-packet lifecycle
    events with 1-in-[k] head-based sampling (see {!Protocol.create}).
    [jobs] is the intra-run tracker fan-out handed to the channel and
    protocol (default 1; results never depend on it — it only pays off
    on large sparse measures, docs/SCALING.md). Raises
    [Invalid_argument] on negative [metrics_every]. *)
val run_traced :
  ?packet_trace:int ->
  ?jobs:int ->
  telemetry:Dps_telemetry.Telemetry.t ->
  metrics_every:int ->
  config:Protocol.config ->
  oracle:Dps_sim.Oracle.t ->
  source:source ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  unit ->
  Protocol.report

(** [run_many ?jobs ?telemetry ?metrics_every ~config ~oracle ~source
    ~seeds ~frames ()] — one full {!run} per seed in [seeds], executed
    [jobs]-way parallel on a {!Dps_par.Par} domain pool, reports
    returned in seed order. Each replica draws from its own
    [Rng.create ~seed], so the result list depends only on [seeds] —
    {e never} on [jobs]: [~jobs:4] returns byte-identical reports and
    telemetry to [~jobs:1] (pinned by the [@par-smoke] golden; see
    docs/PARALLELISM.md).

    Telemetry: each replica records into a private
    {!Dps_telemetry.Memory_sink} (instrumented exactly as {!run_traced},
    including [metrics_every]); afterwards, in seed order, a
    [driver.replica] point (attrs: index, seed, injected, delivered) is
    emitted followed by that replica's replayed stream, and the run
    closes with a [driver.run_many] span aggregating all replicas —
    totals plus the bucket-merged latency histogram
    ({!Dps_telemetry.Histo.merge}) — and a flush. [source] is shared by
    every replica; both injection models are immutable, so this is safe
    — per-replica mutable state must stay out of [source].

    Raises [Invalid_argument] when [jobs < 1] or [metrics_every < 0]. *)
val run_many :
  ?jobs:int ->
  ?telemetry:Dps_telemetry.Telemetry.t ->
  ?metrics_every:int ->
  config:Protocol.config ->
  oracle:Dps_sim.Oracle.t ->
  source:source ->
  seeds:int list ->
  frames:int ->
  unit ->
  Protocol.report list

(** [run_faulted ?guard ~config ~oracle ~source ~plan ~frames ~rng ()] —
    {!run} under a fault plan: a {!Dps_faults.Injector} is built for the
    plan and hooked into the channel; [guard] installs the overload guard
    ({!Protocol.guard}). Returns the report together with the injector,
    whose counters say how many transmissions each fault kind suppressed
    ({!Dps_faults.Injector.suppressed_of}).

    Determinism: the channel takes the first RNG split exactly as in
    {!run}; the fault layer takes its own split only when the plan has
    correlated-loss episodes, so a loss-free or empty plan reproduces the
    corresponding un-faulted run bit for bit. The interference measure is
    attached to the channel (and injector) only when the plan needs it —
    degradation episodes or neighbourhood targets. *)
val run_faulted :
  ?guard:Protocol.guard ->
  config:Protocol.config ->
  oracle:Dps_sim.Oracle.t ->
  source:source ->
  plan:Dps_faults.Plan.t ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  unit ->
  Protocol.report * Dps_faults.Injector.t

(** [run_faulted_traced ?packet_trace ?guard ~telemetry ~metrics_every
    ~config ~oracle ~source ~plan ~frames ~rng ()] — {!run_faulted} with
    instrumentation as in {!run_traced} (including optional per-packet
    tracing); the injector additionally emits
    [fault.episode.start]/[fault.episode.end] point events and the
    [fault.suppressed{kind=...}] counters (docs/OBSERVABILITY.md).
    [jobs] as in {!run_traced}. *)
val run_faulted_traced :
  ?packet_trace:int ->
  ?guard:Protocol.guard ->
  ?jobs:int ->
  telemetry:Dps_telemetry.Telemetry.t ->
  metrics_every:int ->
  config:Protocol.config ->
  oracle:Dps_sim.Oracle.t ->
  source:source ->
  plan:Dps_faults.Plan.t ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  unit ->
  Protocol.report * Dps_faults.Injector.t

(** [run_protocol ~protocol ~source ~frames ~rng] — same as {!run}, against
    existing protocol state (continue a run, e.g. to drain after load). *)
val run_protocol :
  protocol:Protocol.t ->
  source:source ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  Protocol.report

(** [run_protocol_traced ~telemetry ~metrics_every ~protocol ~source ~frames
    ~rng] — {!run_protocol} with instrumentation as in {!run_traced}.
    [telemetry] here only drives the run span and the metric snapshots;
    instrument the protocol and channel themselves by passing the same
    bundle to their [create]s. *)
val run_protocol_traced :
  telemetry:Dps_telemetry.Telemetry.t ->
  metrics_every:int ->
  protocol:Protocol.t ->
  source:source ->
  frames:int ->
  rng:Dps_prelude.Rng.t ->
  Protocol.report
