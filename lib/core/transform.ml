module Rng = Dps_prelude.Rng
module Util = Dps_prelude.Util
module Algorithm = Dps_static.Algorithm
module Request = Dps_static.Request

let chi ~chi_factor ~chi_offset ~m =
  chi_factor *. (log (float_of_int (Int.max m 2)) +. chi_offset)

(* Number of halving iterations until the remaining measure is within the
   residue bound 2·phi·chi·log n. *)
let halving_iterations ~i_val ~residue =
  if i_val <= residue then 0 else Util.ceil_log2 (i_val /. residue)

(* Indices still unserved, in increasing order. *)
let pending_indices served =
  let acc = ref [] in
  for idx = Array.length served - 1 downto 0 do
    if not served.(idx) then acc := idx :: !acc
  done;
  !acc

let residue_bound ~phi ~chi_val ~n =
  Float.max chi_val (2. *. Float.max phi 0.5 *. chi_val *. Util.log2 (float_of_int (n + 2)))

let apply ?(chi_factor = 2.) ?(chi_offset = 1.) ?(phi = 1.) (a : Algorithm.t) =
  assert (chi_factor > 0. && chi_offset >= 0. && phi > 0.);
  let tail_rounds = int_of_float (Float.ceil phi) + 1 in
  let duration ~m ~i ~n =
    let chi_val = chi ~chi_factor ~chi_offset ~m in
    let residue = residue_bound ~phi ~chi_val ~n in
    let xi = halving_iterations ~i_val:i ~residue in
    let inner_n = Int.max 1 (int_of_float (float_of_int m *. chi_val)) in
    let inner_budget = a.Algorithm.duration ~m ~i:chi_val ~n:inner_n in
    let total = ref 0 in
    for it = 1 to xi do
      let classes =
        Int.max 1
          (int_of_float (Float.ceil (2. ** float_of_int (1 - it) *. i /. chi_val)))
      in
      total := !total + (classes * inner_budget)
    done;
    let tail_budget = a.Algorithm.duration ~m ~i:residue ~n:(Int.max n 1) in
    !total + (tail_rounds * tail_budget)
  in
  let run ~channel ~rng ~measure ~requests ~budget =
    let m = Dps_interference.Measure.size measure in
    let n = Array.length requests in
    let chi_val = chi ~chi_factor ~chi_offset ~m in
    let residue = residue_bound ~phi ~chi_val ~n in
    let i_val = Request.measure_of ~measure requests in
    let xi = halving_iterations ~i_val ~residue in
    let served = Array.make n false in
    let used = ref 0 in
    let inner_n = Int.max 1 (int_of_float (float_of_int m *. chi_val)) in
    let inner_budget = a.Algorithm.duration ~m ~i:chi_val ~n:inner_n in
    (* Run [a] on a subset of requests; fold its outcome into [served]. *)
    let run_inner indices inner =
      match indices with
      | [] -> ()
      | _ when !used >= budget -> ()
      | _ ->
        let idx_arr = Array.of_list indices in
        let reqs = Array.map (fun idx -> requests.(idx)) idx_arr in
        let slice = Int.min inner (budget - !used) in
        let outcome = a.Algorithm.run ~channel ~rng ~measure ~requests:reqs ~budget:slice in
        used := !used + outcome.Algorithm.slots_used;
        Array.iteri
          (fun k ok -> if ok then served.(idx_arr.(k)) <- true)
          outcome.Algorithm.served
    in
    (* Halving stage: random delay classes, each scheduled by the inner
       algorithm with the per-class χ budget. *)
    for it = 1 to xi do
      let classes =
        Int.max 1
          (int_of_float (Float.ceil (2. ** float_of_int (1 - it) *. i_val /. chi_val)))
      in
      let pending = pending_indices served in
      let buckets = Array.make classes [] in
      List.iter
        (fun idx ->
          let d = Rng.int rng classes in
          buckets.(d) <- idx :: buckets.(d))
        pending;
      Array.iter (fun indices -> run_inner (List.rev indices) inner_budget) buckets
    done;
    (* Residue stage: a few plain executions of [a] on whatever is left. *)
    let tail_budget = a.Algorithm.duration ~m ~i:residue ~n:(Int.max n 1) in
    for _ = 1 to tail_rounds do
      run_inner (pending_indices served) tail_budget
    done;
    { Algorithm.served; slots_used = !used }
  in
  { Algorithm.name = Printf.sprintf "transform(%s)" a.Algorithm.name;
    duration;
    run }
