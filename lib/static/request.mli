(** A static transmission request: one packet that must cross one link.

    [key] is an opaque caller-side identifier (e.g. a packet id) used to map
    outcomes back; the algorithms only look at [link]. *)

type t = { link : int; key : int }

(** [make ~link ~key] — a request for link [link >= 0]. *)
val make : link:int -> key:int -> t

(** [load ~m reqs] — the per-link load vector [R] of the requests. *)
val load : m:int -> t array -> float array

(** [measure_of ~measure reqs] — the interference measure
    [I = ||W·R||_inf] induced by the requests. *)
val measure_of : measure:Dps_interference.Measure.t -> t array -> float

(** [measure_of_live s ~measure reqs live] is [measure_of] of the requests
    [reqs.(i)] for [i] in [live], bit for bit. It costs
    O(k log k + Σ nnz(column)) over the [k] distinct requested links
    instead of O(m + nnz(W)), and allocates nothing once [s] is warm: the
    counts go through [s]'s cached load tracker, which comes back reset.
    It borrows [s]'s [flags], [ic] and [spare]; [live] must not be [s]'s
    [spare]. *)
val measure_of_live :
  Dps_sim.Scratch.t ->
  measure:Dps_interference.Measure.t ->
  t array ->
  Dps_prelude.Intvec.t ->
  float
