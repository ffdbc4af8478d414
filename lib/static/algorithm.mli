(** The common interface of static scheduling algorithms.

    An algorithm [A(I, n)], in the paper's terms, serves [n] transmission
    requests of interference measure at most [I] within a schedule length
    that holds with high probability. Here an algorithm is a pair of

    - a {e duration estimate} — the number of slots it plans to use for
      given [m], [I], [n] (the [f(n)·I], [f(m)·I + g(m, n)], … shapes of
      the paper), and
    - a {e runner} that drives a {!Dps_sim.Channel} for at most [budget]
      slots and reports which requests were served.

    Runners must consume no more than [budget] slots and may finish early.
    The dynamic protocol pads the remainder of its time frame with idle
    slots, so two executions never overlap. *)

type outcome = {
  served : bool array;  (** aligned with the request array *)
  slots_used : int;
}

type t = {
  name : string;
  duration : m:int -> i:float -> n:int -> int;
  run :
    channel:Dps_sim.Channel.t ->
    rng:Dps_prelude.Rng.t ->
    measure:Dps_interference.Measure.t ->
    requests:Request.t array ->
    budget:int ->
    outcome;
}

(** [execute t ~channel ~rng ~measure ~requests] — run with the algorithm's
    own duration estimate as the budget. *)
val execute :
  t ->
  channel:Dps_sim.Channel.t ->
  rng:Dps_prelude.Rng.t ->
  measure:Dps_interference.Measure.t ->
  requests:Request.t array ->
  outcome

(** [drop_served served pending] — remove from [pending] every request
    index that [served] marks, keeping the others in order; allocates
    nothing. *)
val drop_served : bool array -> Dps_prelude.Intvec.t -> unit

(** [all_served o] — did every request get through? *)
val all_served : outcome -> bool

(** [served_count o] — number of requests served. *)
val served_count : outcome -> int

(** [split_outcome reqs o] — partition the requests into (served, failed). *)
val split_outcome : Request.t array -> outcome -> Request.t list * Request.t list
