(** Incremental interference engine: maintains the vector [W·R] — and its
    running maximum [I = ||W·R||_inf] — under single-link load updates.

    A naive evaluation of the Section 2 measure rescans all [m] rows on
    every change: O(nnz(W)) per query. This tracker pushes a change of the
    load on link [e] through column [e] of [W] only, so an update costs
    O(nnz(column e)), {!interference_at} is O(1), and {!interference} is
    O(1) amortized (a query after the cached argmax row decreased rescans
    the touched rows — the epoch scan; rows never touched are exactly 0).

    The tracker only ever asks the measure for columns, so it is exact on
    every measure, dense or ε-sparsified ({!Tiled.as_measure}).

    Stale-epoch rescans can fan out over {!Dps_par.Par} when the tracker
    was created with [jobs > 1] (or per query via [?jobs]): the touched
    rows are chunked newest first and per-chunk first-occurrence maxima
    are folded in chunk order, so both the value and the cached argmax
    are byte-identical to the sequential scan for every [jobs]
    (docs/PARALLELISM.md). With [jobs = 1] the rescan is the sequential
    allocation-free loop.

    Updates and queries agree with recomputing {!Measure.interference} on
    the tracked load up to floating-point associativity; the property suite
    [test_load_tracker] pins the two to within 1e-9 on random measures and
    update sequences. *)

type t

(** A fresh tracker over the all-zero load. Updates read the link's
    {!Measure.column}, which the measure keeps and shares with every
    other tracker over it (a measure without a window builds its column
    index on the first request, O(m + nnz) once; a tiled measure builds
    just that column). The tracker itself holds no column data. [jobs]
    (default 1) is the fan-out for stale rescans; [par_threshold]
    (default 4096) is the touched-row count below which rescans stay
    sequential even when [jobs > 1]. Raises [Invalid_argument] on
    [jobs < 1]. *)
val create : ?jobs:int -> ?par_threshold:int -> Measure.t -> t

(** [of_load measure r] starts from load [r]. Raises [Invalid_argument]
    when [r]'s length differs from the measure size. *)
val of_load : ?jobs:int -> ?par_threshold:int -> Measure.t -> float array -> t

(** The measure this tracker was created over (shared, not a copy). *)
val measure : t -> Measure.t

(** Number of links [m]. *)
val size : t -> int

(** [add t e] — one more packet on link [e]. O(nnz(column e)). *)
val add : t -> int -> unit

(** [remove t e] — one packet fewer on link [e]. O(nnz(column e)). *)
val remove : t -> int -> unit

(** [add_scaled t e c] — add [c] (possibly negative) to the load on [e]. *)
val add_scaled : t -> int -> float -> unit

(** [add_count t e n] is [add_scaled t e (float_of_int n)], bit for bit,
    without boxing the float at the call site: once the tracker's
    vectors have grown, updates allocate nothing. *)
val add_count : t -> int -> int -> unit

(** Current load on link [e]. *)
val load : t -> int -> float

(** Snapshot of the full load vector (fresh array). *)
val load_vector : t -> float array

(** [‖R‖∞] of the current load (max over links touched since the last
    reset; never below [0.]). O(touched links) — pairs with
    {!Measure.error_bound} to bound a sparse measure's slack:
    the dense interference exceeds {!interference} by at most
    [Measure.error_bound m ·  max_load t]. *)
val max_load : t -> float

(** [(W·R)(e)] for the current load — the interference link [e] sees. O(1). *)
val interference_at : t -> int -> float

(** [I = ||W·R||_inf] for the current load, never below [0.] (matching
    {!Measure.interference} on an empty system). [jobs] overrides the
    creation-time fan-out for this query's rescan (if one is due); the
    result is byte-identical regardless. *)
val interference : ?jobs:int -> t -> float

(** Back to the all-zero load in time proportional to the entries touched
    since the last reset, not O(m). *)
val reset : t -> unit
