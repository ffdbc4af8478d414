(** The channel oracle: which simultaneous transmissions succeed.

    Each interference model is one adjudication rule applied to the set of
    links attempting a transmission in a slot. *)

type t =
  | Sinr of Dps_sinr.Physics.t
      (** exact SINR feasibility against the attempting set, fixed powers *)
  | Sinr_power_control of Dps_sinr.Params.t * Dps_network.Graph.t
      (** powers chosen per slot (Section 6.2): the channel grants the
          largest length-greedy subset that is feasible under {e some}
          power assignment ({!Dps_sinr.Power_control.max_feasible_subset}) *)
  | Conflict of Dps_interference.Conflict_graph.t
      (** success iff no conflicting link also attempts *)
  | Mac  (** multiple-access channel: success iff the attempt is alone *)
  | Wireline
      (** packet-routing network: every attempt succeeds (per-link
          exclusivity is enforced by {!Channel}) *)
  | Lossy of t * float
      (** Section 9's unreliable-network extension: adjudicate with the
          base oracle, then drop each success independently with the given
          probability. The probability must lie in [0, 1] and randomness
          is required: see {!adjudicate}'s [rng]. *)

(** [adjudicate ?rng t ~active ~marks ~winners] — which of this slot's
    attempting links succeed. [active] holds the deduplicated attempting
    links in first-occurrence order; [marks] is indexed by link and
    nonzero exactly on the links of [active] (the channel's per-slot
    attempt counts). [winners] is cleared and filled with the succeeding
    subset.

    Every rule visits [active] from its last element to its first and
    pushes winners in that order; SINR sums each link's interference in
    the same order, and {!Lossy} draws one loss per base-rule winner in
    winner order. The fixed-seed goldens pin these orders, and with them
    the rng stream and every float sum. Conflict reads [marks] once per
    conflict of each attempting link, O(Σ deg) per slot; the other rules
    ignore it. Wireline, Mac, Conflict and SINR allocate nothing; [Lossy]
    adds only its loss draws' boxed floats, and [Sinr_power_control]
    runs its list-shaped search on a list of [active] from last to
    first.

    [rng] is required by {!Lossy} (raises [Invalid_argument] when
    missing) and ignored by the deterministic models. Raises
    [Invalid_argument] when a {!Lossy} probability lies outside [0, 1] —
    a drop probability would otherwise silently degenerate to the
    clamped Bernoulli. *)
val adjudicate :
  ?rng:Dps_prelude.Rng.t ->
  t ->
  active:Dps_prelude.Intvec.t ->
  marks:int array ->
  winners:Dps_prelude.Intvec.t ->
  unit

(** Display name of the model. *)
val name : t -> string
