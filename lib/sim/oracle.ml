module Rng = Dps_prelude.Rng
module Physics = Dps_sinr.Physics
module Power_control = Dps_sinr.Power_control
module Conflict_graph = Dps_interference.Conflict_graph

type t =
  | Sinr of Physics.t
  | Sinr_power_control of Dps_sinr.Params.t * Dps_network.Graph.t
  | Conflict of Conflict_graph.t
  | Mac
  | Wireline
  | Lossy of t * float

(* The Conflict rule: [e] wins iff none of its conflicting links is
   marked as attempting. One pass over [e]'s row, a top-level recursion
   so that no closure is allocated. *)
let rec unmarked marks row j =
  j >= Array.length row || (marks.(row.(j)) = 0 && unmarked marks row (j + 1))

(* Every rule walks [active] back to front: that is the adjudication
   order, and so the Lossy rng stream and the SINR float summation
   order, that the fixed-seed goldens pin. Power control keeps its
   list-shaped search (its fixed-point iteration is dominated by float
   work, not by the conversion). *)
let rec adjudicate ?rng t ~active ~marks ~winners =
  let module V = Dps_prelude.Intvec in
  V.clear winners;
  match t with
  | Wireline ->
    for i = V.length active - 1 downto 0 do
      V.push winners (V.get active i)
    done
  | Mac -> if V.length active = 1 then V.push winners (V.get active 0)
  | Conflict cg ->
    for i = V.length active - 1 downto 0 do
      let e = V.get active i in
      if unmarked marks (Conflict_graph.conflicts cg e) 0 then V.push winners e
    done
  | Sinr phys ->
    for i = V.length active - 1 downto 0 do
      let e = V.get active i in
      if Physics.feasible phys ~active e then V.push winners e
    done
  | Lossy (base, loss) -> (
    if not (loss >= 0. && loss <= 1.) then
      invalid_arg "Oracle.adjudicate: Lossy probability outside [0, 1]";
    match rng with
    | None -> invalid_arg "Oracle.adjudicate: Lossy oracle needs an rng"
    | Some r ->
      (* The base rule first, then one loss draw per winner in order. *)
      adjudicate ?rng base ~active ~marks ~winners;
      let kept = ref 0 in
      for i = 0 to V.length winners - 1 do
        let e = V.get winners i in
        if not (Rng.bernoulli r loss) then begin
          V.set winners !kept e;
          incr kept
        end
      done;
      V.truncate winners !kept)
  | Sinr_power_control (params, graph) ->
    let attempts = ref [] in
    for i = 0 to V.length active - 1 do
      attempts := V.get active i :: !attempts
    done;
    List.iter
      (fun e -> V.push winners e)
      (Power_control.max_feasible_subset params graph !attempts)

let rec name = function
  | Sinr _ -> "sinr"
  | Sinr_power_control _ -> "sinr-power-control"
  | Conflict _ -> "conflict-graph"
  | Mac -> "multiple-access"
  | Wireline -> "wireline"
  | Lossy (base, loss) -> Printf.sprintf "lossy(%s, %g)" (name base) loss
