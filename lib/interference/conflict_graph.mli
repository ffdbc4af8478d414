(** Conflict graphs over network links (Section 7.2).

    Vertices are link ids; an (undirected) edge means the two links may not
    transmit simultaneously. Together with an ordering π of the links this
    induces the 0/1 interference measure
    [W(e, e') = 1] iff [e] and [e'] conflict and [π(e') ≤ π(e)],
    with diagonal 1 — so [I] sums, for the worst link, the requests on
    conflicting links of smaller order. *)

type t

(** [create ~links ~conflicts] builds a conflict graph over link ids
    [0 .. links - 1] from undirected conflict pairs. Self-loops and duplicate
    pairs are ignored. Raises [Invalid_argument] on out-of-range ids. *)
val create : links:int -> conflicts:(int * int) list -> t

(** Number of links (vertices). *)
val size : t -> int

(** [conflicts t e] — neighbours of [e], in increasing id order. *)
val conflicts : t -> int -> int array

(** [conflict t e e'] — do [e] and [e'] conflict? ([false] when [e = e'].) *)
val conflict : t -> int -> int -> bool

(** [degree t e] — number of conflicting links. *)
val degree : t -> int -> int

(** [independent t links] — is the given set pairwise conflict-free? *)
val independent : t -> int list -> bool

(** {1 Constructions from a network graph}

    The node-local models (node constraint, distance-2, radio) judge only
    the links incident to nodes within one hop of a link's endpoints, in
    O(Σ deg²); the protocol model judges all pairs, O(links²). *)

(** [node_constraint g] — two links conflict iff they share an endpoint
    (each node transmits or receives at most one packet per slot). *)
val node_constraint : Dps_network.Graph.t -> t

(** [distance2 g] — distance-2 matching: two links conflict iff some endpoint
    of one coincides with, or is joined by a link of [g] to, an endpoint of
    the other. *)
val distance2 : Dps_network.Graph.t -> t

(** [protocol_model g ~delta] — the protocol model: links [ℓ] and [ℓ']
    conflict iff the sender of one is within [(1 + delta) · length(ℓ')] of
    the receiver of the other (or vice versa). *)
val protocol_model : Dps_network.Graph.t -> delta:float -> t

(** [radio_model g] — the radio-network model: a receiver hears a
    transmission iff exactly one of its in-neighbours transmits. Two links
    conflict iff they share a sender, share a receiver, or the sender of one
    is an in-neighbour (in [g]) of the other's receiver. *)
val radio_model : Dps_network.Graph.t -> t

(** {1 Inductive independence} *)

(** [degeneracy_order t] — an ordering π produced by repeatedly removing a
    minimum-degree vertex (smallest-last), the smallest link id among
    ties. For graphs of inductive independence ρ this is the standard
    witness ordering heuristic. Returns [order] with
    [order.(rank) = link]. O((links + conflicts) · log links). *)
val degeneracy_order : t -> int array

(** [independence_bound t ~order ~samples rng] — empirical upper estimate of
    the inductive independence number ρ w.r.t. [order]: greedily builds
    [samples] random maximal independent sets and reports the largest number
    of set members that conflict with a single later-ordered vertex. *)
val independence_bound : t -> order:int array -> samples:int -> Dps_prelude.Rng.t -> int

(** [to_measure t ~order] — the interference measure described above, where
    [order.(rank) = link] defines π. O(links + conflicts). *)
val to_measure : t -> order:int array -> Measure.t
