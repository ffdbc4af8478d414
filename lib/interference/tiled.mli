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

    The result is one {!Measure.t} ({!as_measure}): rows packed in link
    order into its Bigarray slabs, [row_bound e] as its
    {!Measure.row_error}, and the near window as its {!Measure.of_csr}
    window, so columns are built on demand from the window's rows. [t]
    keeps the construction metadata around it. Construction fans out
    per tile over {!Dps_par.Par} and packs the per-tile rows in fixed
    order, so the measure is byte-identical whatever [jobs] is
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

(** Largest row bound over all rows ({!Measure.error_bound} of the
    measure); at most [epsilon t]. *)
val max_row_bound : t -> float

(** Approximate resident size of the measure in bytes (slabs + per-link
    index and row-bound arrays) — the memory model of docs/SCALING.md.
    The column store is not counted: 8 bytes per link for its slots,
    plus the columns a run has requested. *)
val bytes : t -> int

(** [as_measure ?jobs t] — the measure [create] built, O(1): every call
    returns the same value, so consumers that cache per-measure state by
    physical identity share it. The whole protocol stack (trackers,
    static algorithms, channel, serving) runs on it directly, with no
    densification. [jobs] (default 1) has no effect beyond being
    checked: raises [Invalid_argument] on [jobs < 1]. *)
val as_measure : ?jobs:int -> t -> Measure.t
