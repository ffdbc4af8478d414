module Rng = Dps_prelude.Rng
module Graph = Dps_network.Graph
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Oracle = Dps_sim.Oracle
module Delay_select = Dps_static.Delay_select
module Contention = Dps_static.Contention
module Oneshot = Dps_static.Oneshot
module Algorithm = Dps_static.Algorithm
module Protocol = Dps_core.Protocol
module Json = Dps_trace.Json
module Event = Dps_telemetry.Event

type model =
  | Sinr_linear
  | Sinr_sqrt
  | Sinr_pc
  | Conflict_d2
  | Node_constraint
  | Radio
  | Mac
  | Wireline

type t = {
  model : string;
  topology : string;
  algorithm : string option;
  rate : float;
  epsilon : float;
  stations : int;
  loss : float;
  sparse : float option;
  tile : float option;
}

let make ?algorithm ?(epsilon = 0.5) ?(stations = 8) ?(loss = 0.) ?sparse
    ?tile ~model ~topology ~rate () =
  { model; topology; algorithm; rate; epsilon; stations; loss; sparse; tile }

let model_of_string = function
  | "sinr-linear" -> Sinr_linear
  | "sinr-sqrt" -> Sinr_sqrt
  | "sinr-pc" -> Sinr_pc
  | "radio" -> Radio
  | "conflict-d2" -> Conflict_d2
  | "node-constraint" -> Node_constraint
  | "mac" -> Mac
  | "wireline" -> Wireline
  | other -> failwith ("unknown model: " ^ other)

let parse_topology s ~stations =
  match String.split_on_char ':' s with
  | [ "grid"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ r; c ] ->
      Topology.grid ~rows:(int_of_string r) ~cols:(int_of_string c) ~spacing:10.
    | _ -> failwith "grid topology must be grid:RxC")
  | [ "line"; n ] -> Topology.line ~nodes:(int_of_string n) ~spacing:10.
  | [ "random"; n ] ->
    let rng = Rng.create ~seed:1 () in
    Topology.random_geometric rng ~nodes:(int_of_string n) ~side:60. ~radius:18.
  | [ "mac" ] -> Topology.mac_channel ~stations
  | _ -> failwith "unknown topology (grid:RxC | line:N | random:N | mac)"

let build_model ?sparse ?tile ?jobs model g =
  match model with
  | Sinr_linear ->
    let phys = Physics.make (Params.make ~noise:1e-9 ()) (Power.linear 2.) g in
    (match sparse with
    | None -> (Sinr_measure.linear_power phys, Oracle.Sinr phys, None)
    | Some epsilon ->
      (* The ε-sparsified tiled construction (docs/SCALING.md): same
         protocol downstream, the matrix just underestimates interference
         by at most ε·||R||_inf. No dense matrix is ever built on this
         path. *)
      let tiled =
        Sinr_measure.linear_power_tiled ?jobs ?cell:tile ~epsilon phys
      in
      (Tiled.as_measure tiled, Oracle.Sinr phys, Some tiled))
  | _ when sparse <> None ->
    failwith "--sparse is only supported for the sinr-linear model"
  | Sinr_sqrt ->
    let phys =
      Physics.make (Params.make ~noise:1e-9 ()) (Power.square_root 2.) g
    in
    (Sinr_measure.monotone_sublinear phys, Oracle.Sinr phys, None)
  | Sinr_pc ->
    let prm = Params.make ~noise:1e-9 () in
    let phys = Physics.make prm (Power.uniform 1.) g in
    (Sinr_measure.power_control phys, Oracle.Sinr_power_control (prm, g), None)
  | Conflict_d2 ->
    let cg = Conflict_graph.distance2 g in
    let order = Conflict_graph.degeneracy_order cg in
    (Conflict_graph.to_measure cg ~order, Oracle.Conflict cg, None)
  | Node_constraint ->
    let cg = Conflict_graph.node_constraint g in
    let order = Conflict_graph.degeneracy_order cg in
    (Conflict_graph.to_measure cg ~order, Oracle.Conflict cg, None)
  | Radio ->
    let cg = Conflict_graph.radio_model g in
    let order = Conflict_graph.degeneracy_order cg in
    (Conflict_graph.to_measure cg ~order, Oracle.Conflict cg, None)
  | Mac -> (Measure.complete (Graph.link_count g), Oracle.Mac, None)
  | Wireline -> (Measure.identity (Graph.link_count g), Oracle.Wireline, None)

let build_algorithm ?g name =
  match name with
  | "measure-greedy" -> (
    match g with
    | Some g -> Dps_static.Measure_greedy.make ~priority:(Graph.link_length g) ()
    | None -> failwith "measure-greedy needs a geometric topology")
  | "delay-select" -> Delay_select.make ~c:4. ()
  | "contention" -> Contention.make ~c:4. ()
  | "contention-transformed" -> Dps_core.Transform.apply (Contention.make ~c:4. ())
  | "oneshot" -> Oneshot.algorithm
  | "decay" -> Dps_mac.Decay.make ~delta:0.3 ()
  | "round-robin" -> Dps_mac.Round_robin.algorithm
  | other -> failwith ("unknown algorithm: " ^ other)

let default_algorithm = function
  | Sinr_linear | Sinr_sqrt -> "delay-select"
  | Sinr_pc -> "measure-greedy"
  | Conflict_d2 | Node_constraint | Radio -> "contention"
  | Mac -> "decay"
  | Wireline -> "oneshot"

type built = {
  spec : t;
  graph : Graph.t;
  measure : Measure.t;
  oracle : Oracle.t;
  tiled : Tiled.t option;
  algorithm : Algorithm.t;
  config : Protocol.config;
  max_hops : int;
  mac : bool;
}

let build ?jobs spec =
  (match spec.sparse with
  | Some eps when eps < 0. -> failwith "--sparse epsilon must be >= 0"
  | None when spec.tile <> None -> failwith "--tile requires --sparse"
  | _ -> ());
  (match spec.tile with
  | Some c when c <= 0. -> failwith "--tile cell must be > 0"
  | _ -> ());
  if spec.loss < 0. || spec.loss > 1. then
    failwith "--loss probability must lie in [0, 1]";
  let model = model_of_string spec.model in
  let topology = if model = Mac then "mac" else spec.topology in
  let g = parse_topology topology ~stations:spec.stations in
  let measure, oracle, tiled =
    build_model ?sparse:spec.sparse ?tile:spec.tile ?jobs model g
  in
  let oracle =
    if spec.loss > 0. then Oracle.Lossy (oracle, spec.loss) else oracle
  in
  let algorithm =
    build_algorithm ~g
      (match spec.algorithm with
      | Some a -> a
      | None -> default_algorithm model)
  in
  let max_hops = if model = Mac then 1 else 8 in
  let config =
    Protocol.configure ~epsilon:spec.epsilon ~algorithm ~measure
      ~lambda:spec.rate ~max_hops ()
  in
  { spec;
    graph = g;
    measure;
    oracle;
    tiled;
    algorithm;
    config;
    max_hops;
    mac = model = Mac }

(* ------------------------------------------ checkpoint serialization *)

let opt_float name = function
  | None -> []
  | Some f -> [ (name, Wire.Float f) ]

let to_json spec =
  Wire.obj
    ([ ("model", Wire.Str spec.model);
       ("topology", Wire.Str spec.topology) ]
    @ (match spec.algorithm with
      | None -> []
      | Some a -> [ ("algorithm", Wire.Str a) ])
    @ [ ("rate", Wire.Float spec.rate);
        ("epsilon", Wire.Float spec.epsilon);
        ("stations", Wire.Int spec.stations);
        ("loss", Wire.Float spec.loss) ]
    @ opt_float "sparse" spec.sparse
    @ opt_float "tile" spec.tile)

let of_json j =
  let str name =
    match Json.member name j with
    | Some (Json.Str s) -> s
    | _ -> failwith ("scenario: missing field " ^ name)
  in
  let num name ~default =
    match Json.member name j with
    | Some v -> Json.to_float v
    | None -> default
  in
  let opt name =
    match Json.member name j with
    | Some v -> Some (Json.to_float v)
    | None -> None
  in
  { model = str "model";
    topology = str "topology";
    algorithm =
      (match Json.member "algorithm" j with
      | Some (Json.Str s) -> Some s
      | _ -> None);
    rate = num "rate" ~default:0.04;
    epsilon = num "epsilon" ~default:0.5;
    stations = int_of_float (num "stations" ~default:8.);
    loss = num "loss" ~default:0.;
    sparse = opt "sparse";
    tile = opt "tile" }
