(** Scenario specs: the (model, topology, algorithm, rate, ...) tuple
    that picks a protocol instance, as plain serializable data.

    Factored out of [bin/dps_run.ml] so the CLI runner, the serving
    daemon and the checkpoint loader build from one source of truth —
    the parsers and defaults here are exactly the ones dps_run always
    had, pinned by the \@pin-smoke goldens. A spec round-trips through
    JSON ({!to_json}/{!of_json}) so a checkpoint header can name the
    world it was taken in and {!restore} can rebuild it bit-identically
    (docs/SERVING.md §4). *)

type t = {
  model : string;
      (** sinr-linear, sinr-sqrt, sinr-pc, conflict-d2, node-constraint,
          radio, mac, wireline *)
  topology : string;  (** grid:RxC | line:N | random:N | mac *)
  algorithm : string option;  (** [None] = model-appropriate default *)
  rate : float;  (** injection rate λ *)
  epsilon : float;  (** protocol headroom *)
  stations : int;  (** stations for the mac model *)
  loss : float;  (** per-transmission loss probability *)
  sparse : float option;  (** ε-sparsified tiled engine (sinr-linear) *)
  tile : float option;  (** tile side for [sparse] *)
}

(** [make ~model ~topology ~rate ()] with dps_run's defaults:
    [epsilon = 0.5], [stations = 8], [loss = 0]. *)
val make :
  ?algorithm:string ->
  ?epsilon:float ->
  ?stations:int ->
  ?loss:float ->
  ?sparse:float ->
  ?tile:float ->
  model:string ->
  topology:string ->
  rate:float ->
  unit ->
  t

(** Everything {!build} derives from a spec. *)
type built = {
  spec : t;
  graph : Dps_network.Graph.t;
  measure : Dps_interference.Measure.t;
  oracle : Dps_sim.Oracle.t;
  tiled : Dps_interference.Tiled.t option;
      (** present when the spec asked for the sparse engine *)
  algorithm : Dps_static.Algorithm.t;
  config : Dps_core.Protocol.config;  (** frame sized for the spec's rate *)
  max_hops : int;
  mac : bool;  (** mac-model runs route single-hop station links *)
}

(** [build ?jobs spec] — topology, interference model, oracle, algorithm
    and sized protocol config, exactly as dps_run constructs them (same
    seeds, same constants). A sparse spec builds the tiled engine and
    runs on the measure it packed ({!Dps_interference.Tiled.as_measure})
    — the dense matrix is never materialised. [jobs] (default 1)
    parallelises the tiled construction; results never depend on it.
    Raises [Failure]/[Invalid_argument] with a CLI-worded message on
    anything inconsistent. *)
val build : ?jobs:int -> t -> built

(** [parse_topology s ~stations] — dps_run's topology grammar. *)
val parse_topology : string -> stations:int -> Dps_network.Graph.t

(** [build_algorithm ?g name] — dps_run's algorithm registry
    ([measure-greedy] needs the geometric topology [g]). *)
val build_algorithm : ?g:Dps_network.Graph.t -> string -> Dps_static.Algorithm.t

(** JSON object for checkpoint headers (deterministic field order). *)
val to_json : t -> string

(** Inverse of {!to_json}; raises [Failure] on missing/ill-typed
    fields (numeric fields fall back to dps_run's CLI defaults when
    absent, so headers stay readable across minor spec growth). *)
val of_json : Dps_trace.Json.t -> t
