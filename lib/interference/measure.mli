(** The linear interference measure of the paper (Section 2).

    A matrix [W] over the [m] network links where [W(e, e')] in [0, 1]
    quantifies how much a transmission on [e'] interferes with one on [e];
    [W(e, e) = 1] for all [e]. The interference measure induced by a load
    vector [R] (number of packets per link) is

    {[ I = ||W · R||_inf = max_e  Σ_e' W(e, e') · R(e') ]}

    Instantiating [W] recovers packet routing (identity), the multiple-access
    channel (all ones), SINR affectance matrices ({!Dps_sinr.Sinr_measure}),
    and conflict graphs ({!Conflict_graph.to_measure}).

    Rows are stored sparsely (zero entries dropped) in a CSR packing —
    one flat id array and one flat weight array per matrix — so
    conflict-graph measures stay linear in the number of conflicts and row
    scans are cache-friendly. A transposed (CSC) index is materialized
    lazily the first time a column is scanned; {!Load_tracker} uses it to
    push single-link load changes to the affected rows in
    O(nnz(column)).

    A measure may also wrap an {e external} backend ({!of_ext}): a record
    of closures delegating every operation, used by {!Tiled.as_measure} to
    run the whole protocol stack on the ε-sparsified slab engine without
    densifying. External backends follow the same semantics — column
    iteration in ascending link-id order included, so an exact (ε = 0)
    external measure behaves byte-identically to its dense equivalent —
    and additionally record an {!error_bound}: how far below the true
    dense value their interference answers may fall. An external backend
    need keep no full column index: it builds each {!column} on its
    first request and keeps it. *)

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
    as the model requires. O(m²). *)
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

(** [weight t e e'] is [W(e, e')] ([0.] where absent). *)
val weight : t -> int -> int -> float

(** Stored entries (nonzeros) in the whole matrix. *)
val nnz : t -> int

(** [row t e] is the sparse row of [e]: pairs [(e', W(e, e'))], including
    the diagonal. Allocates a fresh array; hot paths should use
    {!iter_row}. *)
val row : t -> int -> (int * float) array

(** Stored entries in row [e]. *)
val row_nnz : t -> int -> int

(** [iter_row t e f] calls [f e' w] for every stored [W(e, e') = w],
    in ascending [e'] order, without allocating. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [ensure_transpose t] — build the CSC index now if it does not exist
    yet (idempotent, O(m + nnz)). The lazy build mutates a dense [t], so
    a measure shared by several domains must be forced {e before} the
    fan-out — [Driver.run_many] does this for the measure inside its
    config; call it yourself when handing a fresh measure to your own
    parallel tasks (docs/PARALLELISM.md). External backends fill their
    column store one column at a time, safely from any domain: a
    no-op. *)
val ensure_transpose : t -> unit

(** One column of [W]: the stored entries [W(rows.(k), e') =
    weights.(k)] for [k] in [[lo, hi)], rows ascending. The arrays may be
    shared with the measure (a dense column is a slice of the transpose):
    read-only. *)
type column = { rows : int array; weights : float array; lo : int; hi : int }

(** [column t e'] — column [e'] as a {!column} view (forces a dense
    transpose; an external backend builds it on demand). The first
    request for a column makes its view and the measure keeps it, so
    later requests return the same view without allocating, and every
    consumer of one measure shares one copy of each column. *)
val column : t -> int -> column

(** [iter_column t e' f] calls [f e w] for every stored [W(e, e') = w] —
    the rows a load change on link [e'] affects — in ascending [e] order.
    The first call builds the CSC transpose in O(m + nnz); later calls
    reuse it. *)
val iter_column : t -> int -> (int -> float -> unit) -> unit

(** [interference_at t load e] is [(W · load)(e)]. [load] must have length
    [m]. *)
val interference_at : t -> float array -> int -> float

(** [interference t load] is [I = ||W · load||_inf]. *)
val interference : t -> float array -> float

(** [interference_of_counts t counts] — same with integer per-link packet
    counts. *)
val interference_of_counts : t -> int array -> float

(** Largest row sum [max_e Σ_e' W(e, e')]; an upper bound on the measure of
    a unit load on every link. *)
val max_row_sum : t -> float

(** [of_ext ~m … ()] wraps an external interference backend as a measure.
    Every closure must honour the dense contract documented on the
    corresponding accessor above; in particular [iter_row]/[iter_column]
    must visit entries in ascending id order, rows ascending inside a
    [column], and [column] must be safe to call from several domains at
    once and, once a column has been requested, return it again without
    allocating.
    [error_bound] is the backend's global slack: for any load vector [R],
    the true dense interference exceeds the backend's answer by at most
    [error_bound · ||R||_inf] (per-row refinement via [row_error]).
    Raises [Invalid_argument] if [m <= 0] or [error_bound < 0]. *)
val of_ext :
  m:int ->
  nnz:(unit -> int) ->
  row_nnz:(int -> int) ->
  iter_row:(int -> (int -> float -> unit) -> unit) ->
  weight:(int -> int -> float) ->
  column:(int -> column) ->
  interference_at:(float array -> int -> float) ->
  interference:(float array -> float) ->
  max_row_sum:(unit -> float) ->
  error_bound:float ->
  row_error:(int -> float) ->
  unit ->
  t

(** Whether this measure is backed by the dense CSR packing (true) or an
    external backend (false). Dense measures are exact; sparse scenario
    builds assert on this to prove no densification happened. *)
val is_dense : t -> bool

(** Global underestimation slack: the true interference of any load [R]
    exceeds [interference t R] by at most [error_bound t · ||R||_inf].
    [0.] for dense measures — their answers are exact. *)
val error_bound : t -> float

(** [row_error t e] — per-row slack: the dense [(W·R)(e)] exceeds the
    backend's by at most [row_error t e · ||R||_inf]. [0.] for dense. *)
val row_error : t -> int -> float
