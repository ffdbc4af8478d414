(** Per-channel scratch buffers for the zero-allocation hot loop.

    One instance per channel, borrowed by the static algorithm driving
    that channel (via {!Channel.scratch}) so per-slot worklists are
    reused instead of reallocated. Single-borrower contract: exactly one
    algorithm run uses the scratch at a time. See docs/PERFORMANCE.md. *)

type t = {
  m : int;  (** number of links *)
  jobs : int;  (** rescan fan-out handed to the cached tracker *)
  attempts : Dps_prelude.Intvec.t;
      (** per-slot attempt links (cleared by the borrower) *)
  active : Dps_prelude.Intvec.t;  (** per-run active-link worklist *)
  pending : Dps_prelude.Intvec.t;  (** pending request indices *)
  spare : Dps_prelude.Intvec.t;  (** second worklist / CSR item pool *)
  owner : int array;
      (** length m; link -> request index of this slot's attempt.
          Garbage between uses. *)
  flags : bool array;
      (** length m; all-false between uses — borrowers clear what they
          set *)
  ia : int array;  (** length m, garbage between uses *)
  ib : int array;  (** length m, garbage between uses *)
  ic : int array;  (** length m, garbage between uses *)
  mutable na : int array;  (** n-grown scratch, see {!ensure_n} *)
  mutable nb : int array;  (** n-grown scratch, see {!ensure_n} *)
  mutable nc : int array;  (** n-grown scratch, see {!ensure_n} *)
  mutable tracker : Dps_interference.Load_tracker.t option;
      (** cached load tracker, use via {!tracker} *)
}

val create : ?jobs:int -> m:int -> unit -> t
(** [create ?jobs ~m ()] — fresh buffers for an [m]-link channel.
    [jobs] (default 1) is the stale-rescan fan-out for the cached
    tracker; results never depend on it. *)

val ensure_n : t -> int -> unit
(** Grow [na]/[nb]/[nc] to hold at least [n] entries. *)

val tracker : t -> Dps_interference.Measure.t -> Dps_interference.Load_tracker.t
(** The channel's cached load tracker for [measure], created on first
    use and reused while the (physically) same measure is passed. Hand
    it back reset. *)
