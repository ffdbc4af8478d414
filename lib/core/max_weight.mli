(** The Tassiulas–Ephremides max-weight baseline (Section 1.2).

    The paper's yardstick: a centralized scheduler that, in {e every slot},
    serves a maximum-weight feasible set of links, weighted by queue
    length. It is throughput-optimal — stable for any injection some
    protocol can stabilize — but neither distributed nor polynomial-time;
    the paper's protocol approximates it within the competitive ratios of
    Sections 6–7.

    Exact max-weight independent set is NP-hard in general, so this
    implementation is the standard greedy approximation: scan links by
    decreasing queue weight and add each one that keeps the set
    oracle-feasible. Comparing its empirical stability region with the
    frame protocol's measures the competitive ratio directly
    (bench experiment A5). *)

type report = {
  slots : int;
  injected : int;
  delivered : int;
  in_system : Dps_prelude.Timeseries.t;  (** sampled once per [sample] slots *)
  latency : Dps_prelude.Histogram.t;
  max_queue : int;
}

(** [run ~oracle ~m ~inject_slot ~slots ?sample rng] — simulate [slots]
    slots: [inject_slot slot] provides the paths arriving at that slot;
    every packet advances hop by hop through per-link queues, and each
    slot the greedy max-weight feasible set transmits. [sample] controls
    the queue-series resolution (default: every [max 1 (slots/512)]
    slots). *)
val run :
  oracle:Dps_sim.Oracle.t ->
  m:int ->
  inject_slot:(int -> Dps_network.Path.t list) ->
  slots:int ->
  ?sample:int ->
  Dps_prelude.Rng.t ->
  report

(** [greedy_set channel weights] — the greedy max-weight feasible set
    for the per-link queue lengths [weights] under [channel]'s oracle,
    with any {!Dps_sim.Oracle.Lossy} layers stripped (losses land when
    the set transmits). Links with queued packets are scanned by weight,
    descending, ties by ascending id; each is accepted when the oracle
    grants the whole accepted set plus it, submitted in acceptance order
    and then the candidate. Returns the set newest acceptance first, the
    order {!run} transmits it in, in [channel]'s scratch [attempts]
    vector: valid until the scratch's next borrower. *)
val greedy_set : Dps_sim.Channel.t -> int array -> Dps_prelude.Intvec.t

(** [verdict report] — stability assessment of the queue series. *)
val verdict : report -> Stability.verdict
