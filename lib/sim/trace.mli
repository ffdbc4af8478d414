(** Per-run channel accounting.

    Counts slots, attempts and successes, globally and per link. Used by
    tests for conservation invariants and by the benches for utilization
    figures. *)

type t

(** [create ~m] — zeroed counters for an [m]-link channel. *)
val create : m:int -> t

(** Total slots elapsed. *)
val slots : t -> int

(** Total transmission attempts across all slots. *)
val attempts : t -> int

(** Total successful transmissions. *)
val successes : t -> int

(** Slots in which at least one attempt was made. *)
val busy_slots : t -> int

(** [successes_on t e] — successful transmissions on link [e]. *)
val successes_on : t -> int -> int

(** [attempts_on t e] — attempts on link [e]. *)
val attempts_on : t -> int -> int

(** [record t ~attempted ~succeeded] — fold one slot's attempted and
    successful links into the counters; allocates nothing. *)
val record :
  t ->
  attempted:Dps_prelude.Intvec.t ->
  succeeded:Dps_prelude.Intvec.t ->
  unit

(** [record_interference t i] — fold one busy slot's measured attempt
    interference [i = ||W·attempts||_inf] into the running aggregates.
    Recorded by channels created with a measure attached. *)
val record_interference : t -> float -> unit

(** Largest per-slot measured interference so far; [0.] when none
    recorded. *)
val peak_interference : t -> float

(** Mean per-slot measured interference over the recorded (busy) slots;
    [0.] when none recorded. *)
val mean_interference : t -> float

(** [pp] prints the slot, busy-slot, attempt and success totals. *)
val pp : Format.formatter -> t -> unit
