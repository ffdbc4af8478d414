(** Round-Robin-Withholding (Lemma 17): the deterministic asymmetric
    algorithm for the multiple-access channel with station ids.

    Station 0 transmits its packets back to back; one silent slot signals
    the handover to station 1, and so on. [n] packets across [m] stations
    are served in exactly [n + m] slots — the engine behind the λ < 1
    stable protocol (Corollary 18).

    Stations are identified with link ids; the channel oracle must be
    {!Dps_sim.Oracle.Mac} (any solo transmission succeeds). *)

(** The algorithm; its duration estimate is [min (n + m) (ceil I + m)]. *)
val algorithm : Dps_static.Algorithm.t
