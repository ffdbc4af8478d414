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

let rec adjudicate ?rng t attempts =
  match t with
  | Wireline -> attempts
  | Mac -> ( match attempts with [ e ] -> [ e ] | _ -> [])
  | Sinr phys ->
    List.filter (fun e -> Physics.feasible phys ~active:attempts e) attempts
  | Sinr_power_control (params, graph) ->
    Power_control.max_feasible_subset params graph attempts
  | Conflict cg ->
    List.filter
      (fun e ->
        not (List.exists (fun e' -> Conflict_graph.conflict cg e e') attempts))
      attempts
  | Lossy (base, loss) -> (
    if not (loss >= 0. && loss <= 1.) then
      invalid_arg "Oracle.adjudicate: Lossy probability outside [0, 1]";
    match rng with
    | None -> invalid_arg "Oracle.adjudicate: Lossy oracle needs an rng"
    | Some rng ->
      List.filter
        (fun _ -> not (Rng.bernoulli rng loss))
        (adjudicate ~rng base attempts))

(* Vector adjudication for the zero-allocation slot loop.

   [active] holds the deduplicated attempting links in FIRST-OCCURRENCE
   order; the list API receives them reversed (the channel builds its
   active list by prepending), so every rule here iterates [active] back
   to front to keep adjudication order — and hence the rng stream of
   stochastic oracles and the float summation order of SINR feasibility —
   byte-identical to [adjudicate]. Winners are pushed onto [winners]
   (cleared first) in exactly the order the list API would return them.

   Wireline, Mac, Conflict and SINR adjudicate without allocating, and
   Lossy only boxes its loss draws; power control keeps the list
   implementation (its fixed-point search is list-shaped and dominated
   by float work, not by the conversion). *)
(* The Conflict rule: [e] wins iff none of its conflicting links is
   marked as attempting. One pass over [e]'s row, a top-level recursion
   so that no closure is allocated. *)
let rec unmarked marks row j =
  j >= Array.length row || (marks.(row.(j)) = 0 && unmarked marks row (j + 1))

let rec adjudicate_vec ?rng t ~active ~marks ~winners =
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
      if Physics.feasible_vec phys ~active e then V.push winners e
    done
  | Lossy (base, loss) -> (
    if not (loss >= 0. && loss <= 1.) then
      invalid_arg "Oracle.adjudicate: Lossy probability outside [0, 1]";
    match rng with
    | None -> invalid_arg "Oracle.adjudicate: Lossy oracle needs an rng"
    | Some r ->
      (* The base rule first, then one loss draw per winner in order:
         the list rule's [List.filter] over [adjudicate base]. *)
      adjudicate_vec ?rng base ~active ~marks ~winners;
      let kept = ref 0 in
      for i = 0 to V.length winners - 1 do
        let e = V.get winners i in
        if not (Rng.bernoulli r loss) then begin
          V.set winners !kept e;
          incr kept
        end
      done;
      while V.length winners > !kept do
        ignore (V.pop winners)
      done)
  | Sinr_power_control _ ->
    (* List order = reverse of [active]: build by prepending forward. *)
    let attempts = ref [] in
    V.iter (fun e -> attempts := e :: !attempts) active;
    List.iter (fun e -> V.push winners e) (adjudicate ?rng t !attempts)

let rec name = function
  | Sinr _ -> "sinr"
  | Sinr_power_control _ -> "sinr-power-control"
  | Conflict _ -> "conflict-graph"
  | Mac -> "multiple-access"
  | Wireline -> "wireline"
  | Lossy (base, loss) -> Printf.sprintf "lossy(%s, %g)" (name base) loss
