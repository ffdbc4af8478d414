(** The interference matrices [W] of Section 6.

    Each constructor materializes the measure the paper pairs with a power
    regime; feeding them to {!Dps_interference.Measure.interference} yields
    the [I] the corresponding static algorithm's schedule length is stated
    in. *)

(** [linear_power phys] — Section 6.1, linear power assignment:
    [W(ℓ, ℓ') = a_p(ℓ', ℓ)] (how much [ℓ'] affects [ℓ]). With this measure
    any feasible single-slot set has [I = O(1)], giving the
    constant-competitive protocol of Corollary 12. *)
val linear_power : Physics.t -> Dps_interference.Measure.t

(** [linear_power_tiled ?jobs ?cell ~epsilon phys] — the ε-sparsified,
    spatially tiled construction of the {!linear_power} matrix
    ({!Dps_interference.Tiled}, docs/SCALING.md): links are tiled by
    their midpoints, each row is built exactly against a near window and
    everything farther is charged to the gain-decay envelope
    [min(1, β·p_max / ((d − max_len)^α · tol_min))], where [tol_min] is
    the smallest interference tolerance over links. For every load
    [R ≥ 0] the result underestimates the dense [‖W·R‖∞] by at most
    [epsilon · ‖R‖∞] (per row: [Measure.row_error · ‖R‖∞]); [epsilon = 0.]
    reproduces {!linear_power} entry for entry. O(m · window) instead of
    O(m²) — the construction path for m = 10⁵–10⁶ links. *)
val linear_power_tiled :
  ?jobs:int ->
  ?cell:float ->
  epsilon:float ->
  Physics.t ->
  Dps_interference.Tiled.t

(** [monotone_sublinear phys] — Section 6.1, monotone (sub)linear powers:
    [W(ℓ, ℓ') = max(a_p(ℓ, ℓ'), a_p(ℓ', ℓ))] if [d(ℓ) ≤ d(ℓ')], else [0]
    — rows only charge interference against longer links
    (Corollary 13; [I ≥ Ā/2]). *)
val monotone_sublinear : Physics.t -> Dps_interference.Measure.t

(** [power_control phys] — Section 6.2, powers chosen by the algorithm:
    [W(ℓ, ℓ') = min { 1, d(ℓ)^α/d(s, r')^α + d(ℓ)^α/d(s', r)^α }] if
    [d(ℓ) ≤ d(ℓ')], else [0], where [ℓ = (s, r)], [ℓ' = (s', r')]
    (Corollary 14). *)
val power_control : Physics.t -> Dps_interference.Measure.t
