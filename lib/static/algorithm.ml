type outcome = { served : bool array; slots_used : int }

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

let execute t ~channel ~rng ~measure ~requests =
  let m = Dps_interference.Measure.size measure in
  let i = Request.measure_of ~measure requests in
  let n = Array.length requests in
  let budget = t.duration ~m ~i ~n in
  t.run ~channel ~rng ~measure ~requests ~budget

let drop_served served pending =
  let module V = Dps_prelude.Intvec in
  let kept = ref 0 in
  for k = 0 to V.length pending - 1 do
    let idx = V.get pending k in
    if not served.(idx) then begin
      V.set pending !kept idx;
      incr kept
    end
  done;
  V.truncate pending !kept

let all_served o = Array.for_all Fun.id o.served

let served_count o =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 o.served

let split_outcome reqs o =
  let served = ref [] and failed = ref [] in
  Array.iteri
    (fun idx r ->
      if o.served.(idx) then served := r :: !served else failed := r :: !failed)
    reqs;
  (List.rev !served, List.rev !failed)
