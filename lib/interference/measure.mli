(** The linear interference measure of the paper (Section 2).

    A matrix [W] over the [m] network links where [W(e, e')] in [0, 1]
    quantifies how much a transmission on [e'] interferes with one on [e];
    [W(e, e) = 1] for all [e]. The interference measure induced by a load
    vector [R] (number of packets per link) is

    {[ I = ||W · R||_inf = max_e  Σ_e' W(e, e') · R(e') ]}

    Instantiating [W] recovers packet routing (identity), the multiple-access
    channel (all ones), SINR affectance matrices ({!Dps_sinr.Sinr_measure}),
    and conflict graphs ({!Conflict_graph.to_measure}).

    Every measure has one representation: rows stored sparsely (zero
    entries dropped) in a CSR packing over two flat Bigarray slabs, int32
    column ids and float64 weights, so conflict-graph measures stay
    linear in the number of conflicts and row scans are cache-friendly.
    Each row also records an error bound ({!row_error}): how far its
    answers may fall below the dense matrix it approximates. The dense
    constructors below record 0; the ε-sparsified tiled build
    ({!Tiled.create}) records each row's dropped mass.

    Columns are built on their first request and kept once per measure;
    {!Load_tracker} reads them to push single-link load changes to the
    affected rows in O(nnz(column)). *)

type t

(** Number of links [m]. *)
val size : t -> int

(** [identity m] — packet-routing networks: [I] is the congestion. *)
val identity : int -> t

(** [complete m] — the multiple-access channel: [I] is the total number of
    packets. *)
val complete : int -> t

(** [of_function ~m f] materializes [W(e, e') = f e e'] for all pairs,
    dropping zeros and clamping into [0, 1]. The diagonal is forced to [1]
    as the model requires and never requested. O(m²). Raises
    [Invalid_argument] if [f] returns NaN. *)
val of_function : m:int -> (int -> int -> float) -> t

(** [of_rows ?m rows] builds the measure from explicit sparse rows:
    [rows.(e)] lists [(e', w)] with [w > 0]. The diagonal is forced to 1.
    When [m] is given, [Array.length rows] must equal it — pass it
    whenever the intended size is known independently of the row data,
    so a truncated or padded row array fails loudly instead of silently
    building a smaller or larger matrix. Raises [Invalid_argument] on a
    size mismatch, an empty [rows], out-of-range ids, duplicates in a
    row, or weights outside (0, 1] (NaN included). *)
val of_rows : ?m:int -> (int * float) list array -> t

(** [of_csr ?window ~row_ptr ~cols ~weights ~row_error ()] takes the
    packed rows as they are, without copying (the measure owns the
    arrays from then on: do not write to them): row [e] spans
    [[row_ptr.(e), row_ptr.(e + 1))] of [cols] and [weights], ids
    strictly ascending, the diagonal present with weight 1, every weight
    in (0, 1]. [row_error.(e) >= 0] bounds the row's dropped mass: for
    every load [R >= 0] the matrix this one approximates exceeds
    [(W·R)(e)] by at most [row_error.(e) · ‖R‖∞].

    [window = (tiling, radius)] records that the rows are local: link
    [e] is point [e] of [tiling], and row [e] stores only columns within
    chebyshev tile distance [radius] of its own tile. A column is then
    built from the rows of the tiles within [radius] of it, and the
    measure keeps no full column index. Locality is the caller's
    promise, not checked (it would cost a tenth of a tiled build): an
    entry beyond the window would be missing from its column. Raises
    [Invalid_argument] when anything else above does not hold. *)
val of_csr :
  ?window:Dps_geometry.Tiling.t * int ->
  row_ptr:int array ->
  cols:(int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  weights:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  row_error:float array ->
  unit ->
  t

(** [weight t e e'] is [W(e, e')] ([0.] where absent). O(log row_nnz). *)
val weight : t -> int -> int -> float

(** Stored entries (nonzeros) in the whole matrix. *)
val nnz : t -> int

(** Stored entries in row [e]. *)
val row_nnz : t -> int -> int

(** [iter_row t e f] calls [f e' w] for every stored [W(e, e') = w],
    in ascending [e'] order. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [ensure_transpose t] — build the column index now if the measure
    builds its columns from one and it does not exist yet (idempotent,
    O(m + nnz)). The lazy build mutates [t], so a measure shared by
    several domains must be forced {e before} the fan-out —
    [Driver.run_many] does this for the measure inside its config; call
    it yourself when handing a fresh measure to your own parallel tasks
    (docs/PARALLELISM.md). A measure with a window ({!of_csr}) builds
    each column alone, safely from any domain: a no-op. *)
val ensure_transpose : t -> unit

(** One column of [W]: the stored entries [W(rows.(k), e') =
    weights.(k)] for [k] in [[lo, hi)], rows ascending. The arrays may be
    shared with the measure (a column may be a slice of the transpose):
    read-only. *)
type column = { rows : int array; weights : float array; lo : int; hi : int }

(** [column t e'] — column [e'] as a {!column} view. The first request
    builds it: a slice of the column index, itself built on the first
    request (O(m + nnz), once), or for a measure with a window, from the
    window's rows alone (O(window rows · log row_nnz)). The measure keeps
    it, so later requests return the same view without allocating, and
    every consumer of one measure shares one copy of each column. Rows
    come in ascending order either way, so incremental consumers sum in
    the same float order whichever way the column was built. *)
val column : t -> int -> column

(** [interference_at t load e] is [(W · load)(e)], summed in ascending
    column order. Raises [Invalid_argument] unless [load] has length
    [m]. *)
val interference_at : t -> float array -> int -> float

(** [interference t load] is [I = ||W · load||_inf]; it allocates
    nothing but its result. Raises [Invalid_argument] unless [load] has
    length [m]. *)
val interference : t -> float array -> float

(** Largest row sum [max_e Σ_e' W(e, e')]; an upper bound on the measure of
    a unit load on every link. *)
val max_row_sum : t -> float

(** Global underestimation slack: the largest {!row_error}. The true
    interference of any load [R] exceeds [interference t R] by at most
    [error_bound t · ||R||_inf]; [0.] for the exact dense constructors. *)
val error_bound : t -> float

(** [row_error t e] — per-row slack: the true [(W·R)(e)] exceeds
    [interference_at t R e] by at most [row_error t e · ||R||_inf].
    [0.] for the dense constructors. *)
val row_error : t -> int -> float
