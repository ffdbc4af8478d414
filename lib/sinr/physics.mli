(** Exact SINR computations for a network under a power assignment.

    Precomputes sender/receiver positions, link lengths, powers and received
    signal strengths so that per-slot feasibility checks are cheap. *)

type t

(** [make params power graph] — raises [Invalid_argument] if some link has
    zero length. *)
val make : Params.t -> Power.t -> Dps_network.Graph.t -> t

(** The parameters the physics was built with. *)
val params : t -> Params.t

(** The network the physics was built over. *)
val graph : t -> Dps_network.Graph.t

(** Number of links. *)
val size : t -> int

(** [length t e] — sender–receiver distance of link [e]. *)
val length : t -> int -> float

(** [power_of t e] — transmission power assigned to link [e]. *)
val power_of : t -> int -> float

(** [signal t e] — received signal strength [p(e) / d(e)^alpha]. *)
val signal : t -> int -> float

(** [interference_from t ~src ~dst] — strength, at the receiver of [dst], of
    the signal transmitted by the sender of [src]
    ([p(src) / d(sender src, receiver dst)^alpha]). Requires [src <> dst]. *)
val interference_from : t -> src:int -> dst:int -> float

(** [sinr t ~active e] — the signal-to-interference-plus-noise ratio of
    link [e] when the links in [active] transmit simultaneously ([e]
    itself is skipped if present); [infinity] when there is neither
    interference nor noise. The interference is summed over [active]
    from its last element to its first; the fixed-seed goldens pin that
    float order. Allocates nothing. *)
val sinr : t -> active:Dps_prelude.Intvec.t -> int -> float

(** [feasible t ~active e] — does [e]'s transmission succeed, i.e. is
    [sinr t ~active e >= beta]? Allocates nothing. *)
val feasible : t -> active:Dps_prelude.Intvec.t -> int -> bool

(** [feasible_set t links] — do all the given simultaneous transmissions
    succeed together? Each link's interference is summed in list order. *)
val feasible_set : t -> int list -> bool

(** [length_ratio t] — Δ, the ratio of longest to shortest link length. *)
val length_ratio : t -> float
