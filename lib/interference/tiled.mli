(** ε-sparsified interference measure over a spatial tiling — the
    million-link construction path (docs/SCALING.md).

    {!Measure.of_function} materializes all m² pairs, which dies around
    m ≈ 10⁴ on geometric instances. [Tiled.create] instead partitions the
    links into grid tiles ({!Dps_geometry.Tiling}) and builds each row
    against a near window only, charging everything farther to a decay
    bound:

    - {b far field}: a global chebyshev tile radius [near] is chosen so
      that for every tile, [bound] summed over all links beyond the
      window is ≤ ε/2;
    - {b near field}: inside the window, entries ≤ θ = (ε/2)/(window−1)
      are dropped with their {e exact} mass accumulated per row.

    The per-row dropped mass (exact near mass + far-field bound) is
    recorded: for every load [R ≥ 0] and every link [e],

    {[ 0 ≤ (W_dense · R)(e) − (W_sparse · R)(e) ≤ row_bound e · ‖R‖∞ ]}

    and [row_bound e ≤ max_row_bound ≤ ε], where [W_dense] is the matrix
    {!Measure.of_function} would build from the same clamped gain. With
    [epsilon = 0.] the sparse measure is exactly the dense one.

    Rows are stored in flat [Bigarray] slabs (int32 column ids + float64
    weights), grouped tile-major so a tile's working set is contiguous.
    Construction and {!interference} fan out per tile over
    {!Dps_par.Par} and fold the per-tile results in fixed tile order —
    results are byte-identical whatever [jobs] is
    (docs/PARALLELISM.md). *)

type t

(** [create ?jobs ?cell ~epsilon ~points ~gain ~bound ()] builds the
    sparsified measure for [m = Array.length points] links, where
    [points.(e)] is link [e]'s representative location (tiling only —
    gains stay exact).

    - [gain e e'] is the dense entry [W(e, e')], evaluated only for
      pairs inside the near window, clamped into [0, 1]; the diagonal is
      forced to 1 and never requested.
    - [bound d] must upper-bound [gain e e'] whenever
      [distance points.(e) points.(e') ≥ d] — a monotone decay envelope
      (bake any representative-point slack into [bound]; see
      {!Dps_sinr.Sinr_measure.linear_power_tiled}). Values are clamped
      into [0, 1]; a bound that never decays degrades gracefully to the
      dense construction.
    - [cell] overrides the tile side ({!Dps_geometry.Tiling.create}).
    - [jobs] parallelizes construction per tile ([1] = sequential; the
      result never depends on it).

    Raises [Invalid_argument] on [epsilon < 0], [jobs < 1], an empty
    point set, or a NaN from [gain]/[bound]. *)
val create :
  ?jobs:int ->
  ?cell:float ->
  epsilon:float ->
  points:Dps_geometry.Point.t array ->
  gain:(int -> int -> float) ->
  bound:(float -> float) ->
  unit ->
  t

(** Number of links [m]. *)
val size : t -> int

(** Stored entries in the whole matrix. *)
val nnz : t -> int

(** The ε the measure was built with. *)
val epsilon : t -> float

(** The chosen near-window chebyshev tile radius. *)
val near_radius : t -> int

(** The underlying spatial tiling (links indexed as points). *)
val tiling : t -> Dps_geometry.Tiling.t

(** [row_bound t e] — the recorded bound on row [e]'s dropped mass:
    [(W_dense · R)(e) − (W_sparse · R)(e) ≤ row_bound t e · ‖R‖∞ ]. *)
val row_bound : t -> int -> float

(** Largest {!row_bound} over all rows; at most [epsilon t]. *)
val max_row_bound : t -> float

(** Approximate resident size of the measure in bytes (slabs + per-link
    and per-tile index arrays) — the memory model of docs/SCALING.md.
    The {!column} store is not counted: 8 bytes per link for its slots,
    plus the columns a run has requested. *)
val bytes : t -> int

(** Stored entries in row [e]. *)
val row_nnz : t -> int -> int

(** [iter_row t e f] calls [f e' w] for every stored entry of row [e],
    in ascending [e'] order, without allocating. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [interference_at t load e] is [(W_sparse · load)(e)]. [load] must
    have length [m]. *)
val interference_at : t -> float array -> int -> float

(** [interference ?jobs t load] is [‖W_sparse · load‖∞], computed
    tile-parallel; byte-identical for every [jobs]. *)
val interference : ?jobs:int -> t -> float array -> float

(** [weight t e e'] is the stored [W_sparse(e, e')] ([0.] where the
    entry was dropped or never built). O(log row_nnz). *)
val weight : t -> int -> int -> float

(** Largest stored row sum [max_e Σ_e' W_sparse(e, e')]. *)
val max_row_sum : t -> float

(** [column t e'] — column [e'] as a {!Measure.column}, rows ascending:
    the same order as the dense {!Measure.iter_column}, so incremental
    consumers sum in the same float order and ε = 0 stays byte-identical
    to dense. Built on the first request — the rows that can hold [e']
    are those of the tiles within {!near_radius} of its tile, each
    binary-searched, O(window rows · log row_nnz) — and kept in one store
    per engine: later requests, from any {!as_measure} view or tracker,
    return the same column without allocating. Memory follows the links
    a run has loaded, at most one copy of each column. Safe to call from
    several domains at once. *)
val column : t -> int -> Measure.column

(** [as_measure ?jobs t] — the sparse engine as a first-class
    {!Measure.t} ({!Measure.of_ext}), sharing [t]'s slabs: no
    densification, O(1) to build. The whole protocol stack (trackers,
    static algorithms, channel, serving) runs on it directly;
    [Measure.error_bound] reports {!max_row_bound} and
    [Measure.row_error] the per-row {!row_bound}. [jobs] (default 1) is
    captured for whole-vector [Measure.interference] calls, which
    evaluate tile-parallel; results are byte-identical in [jobs]. Build
    it {e once} per tiled measure and share the result — consumers cache
    per-measure state by physical identity. *)
val as_measure : ?jobs:int -> t -> Measure.t

(** Convert to a dense-indexed {!Measure.t} (CSR with CSC transpose).
    O(nnz) but allocates boxed rows — an opt-in escape hatch for
    comparing against the dense backend at small m; the protocol stack
    itself runs on {!as_measure}. *)
val to_measure : t -> Measure.t

type measure = t

(** Incremental [‖W_sparse · R‖∞] under single-link load updates — the
    tiled instance of {!Tracker_intf.S}. A thin wrapper over
    {!Load_tracker} on the {!as_measure} view: updates push through the
    link's {!column} (built on first use, then shared) in
    O(nnz(column)), queries are O(1) amortized, and reset is
    proportional to what was touched. The tracked value
    equals [interference meas load] exactly, for every [jobs]. *)
module Tracker : sig
  type t

  (** The backend type, for {!Tracker_intf.S} conformance. *)
  type backing = measure

  (** A fresh tracker over an all-zero load. [jobs] (default 1) is the
      fan-out for stale rescans and whole-vector evaluations; results
      never depend on it. *)
  val create : ?jobs:int -> measure -> t

  (** The measure the tracker was built over. *)
  val measure : t -> measure

  (** Current load of one link. *)
  val load : t -> int -> float

  (** [add tr e] — one more packet on link [e]. *)
  val add : t -> int -> unit

  (** [remove tr e] — one packet off link [e]. *)
  val remove : t -> int -> unit

  (** [add_scaled tr e c] — add [c] (possibly negative) to link [e]'s
      load. Raises [Invalid_argument] on an out-of-range link. *)
  val add_scaled : t -> int -> float -> unit

  (** Exact [(W_sparse · load)(e)] for the current load. *)
  val interference_at : t -> int -> float

  (** Current [‖W_sparse · load‖∞]; a query after the maximum fell
      rescans the touched rows ([jobs]-parallel past the tracker's
      threshold). *)
  val interference : ?jobs:int -> t -> float

  (** Back to the all-zero load. *)
  val reset : t -> unit
end
