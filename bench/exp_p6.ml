(* P6 — sparse hot path end-to-end: full-protocol slots/sec with the
   interference measure the ε-sparsified tiled engine packed
   (Tiled.as_measure, no densification) against the dense CSR measure on
   the same physics.

   Workload: a constant-density link cloud (side 2·√m, unit links) under
   the linear power assignment (alpha = 4) — the Section 6.1 geometry
   where every affectance is positive, so the dense W holds all m²
   entries. The admission algorithm is delay-select, deliberately the
   measure-HUNGRY one: every window round evaluates the interference of
   the live request load by pushing the live links' columns through a
   load tracker — columns of length m against the dense matrix, ~50
   entries against the tiled one. That per-round query — not
   construction — is what separates the backends at protocol level;
   oneshot reads the measure only at configure time and would show
   almost no gap.

   Per size the protocol is configured ONCE, on the sparse measure, and
   both backends run with that identical config ({cfg with measure}), so
   frame and phase budgets — hence total slots — are byte-identical and
   the cells compare nothing but per-slot cost. Dense is built only for
   m ≤ dense-cap (4096): above that its construction exhausts memory, and
   no dense figure is given. The speedup is the median ratio over 11
   interleaved dense/sparse pairs, not a ratio of two medians taken
   minutes apart. When the fan-out width allows it, the
   sparse run is repeated with [jobs] handed to the channel and the
   protocol — the stale-rescan fan-out, the only one inside a slot — and
   its totals are asserted byte-identical to the sequential run before
   the parallel wall clock is trusted.

   Output: the table below plus BENCH_P6.json (dps-bench/1, bench "p6")
   at DPS_BENCH_OUT; schema and reading guide in docs/PERFORMANCE.md. *)

open Common
module Tiled = Dps_interference.Tiled

let epsilon = 0.1

type cell = {
  m : int;
  lambda : float;
  frame : int;
  frames_run : int;
  slots : int;
  injected : int;
  delivered : int;
  error_bound : float; (* realized max row bound, <= epsilon *)
  sparse_sps : float;
  par_jobs : int; (* 0 = no fan-out measurement *)
  par_sps : float;
  dense_sps : float; (* 0. when dense was skipped *)
  speedup : float; (* median per-pair dense/sparse time; 0. when skipped *)
}

let physics_for m =
  let rng = Rng.create ~seed:(7300 + m) () in
  let side = 2. *. sqrt (float_of_int m) in
  let g = Topology.link_cloud rng ~links:m ~side ~length:1. in
  ( g,
    Physics.make
      (Params.make ~alpha:4. ~beta:1. ~noise:1e-9 ())
      (Power.linear 2.) g )

(* A fixed number of single-hop flows on random links, calibrated to the
   cell rate: injection costs O(1) per slot in m, so the cells compare
   the scheduling loop, not the traffic source. *)
let single_link_flows rng g measure ~flows ~target =
  let m = Graph.link_count g in
  let gens =
    List.init flows (fun _ -> [ (Path.of_links g [ Rng.int rng m ], 0.003) ])
  in
  Stochastic.calibrate (Stochastic.make gens) measure ~target

(* Largest feasible injection rate from a fixed geometric menu — the
   feasible rates form an interval (too-large rates blow the frame cap,
   too-small ones fall under the concentration floor), so scan downward
   and keep the first configurable point. *)
let pick_rate ~algorithm ~measure =
  let rec go = function
    | [] -> failwith "exp_p6: no feasible rate"
    | l :: rest -> (
      match
        Protocol.configure ~algorithm ~measure ~lambda:l ~max_hops:1 ()
      with
      | cfg -> (l, cfg)
      | exception Invalid_argument _ -> go rest)
  in
  go [ 0.05; 0.02; 0.01; 0.005; 0.002; 0.001 ]

let run_cell ~m ~dense_cap ~runs ~pairs ~jobs =
  let g, phys = physics_for m in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
  let sparse = Tiled.as_measure tiled in
  let algorithm = Dps_static.Delay_select.make ~c:4. () in
  let lambda, config = pick_rate ~algorithm ~measure:sparse in
  let rng = Rng.create ~seed:(7400 + m) () in
  let inj =
    single_link_flows rng g sparse ~flows:(Int.min 64 m) ~target:lambda
  in
  let frames_n = frames (if m >= 100_000 then 8 else 24) in
  (* One deterministic run from a fresh rng with the measure swapped in;
     returns its channel totals. *)
  let one_run ?(jobs = 1) measure_w seed () =
    let rng = Rng.create ~seed () in
    let channel =
      Channel.create ~rng:(Rng.split rng) ~jobs ~oracle:(Oracle.Sinr phys) ~m ()
    in
    let protocol =
      Protocol.create ~jobs { config with Protocol.measure = measure_w }
        ~channel
    in
    let r =
      Driver.run_protocol ~protocol ~source:(Driver.Stochastic inj)
        ~frames:frames_n ~rng
    in
    ( Dps_sim.Trace.slots (Channel.trace channel),
      r.Protocol.injected,
      r.Protocol.delivered )
  in
  let totals, sparse_t =
    Common.median_time ~warmup:1 ~runs (one_run sparse 42)
      ~equal:(fun a b -> a = b)
  in
  let slots, injected, delivered = totals in
  let par_jobs, par_sps =
    if jobs <= 1 then (0, 0.)
    else begin
      let par_totals, t =
        Common.median_time ~warmup:1 ~runs (one_run ~jobs sparse 42)
          ~equal:(fun a b -> a = b)
      in
      if par_totals <> totals then
        failwith "exp_p6: fan-out run disagrees with sequential";
      (jobs, float_of_int slots /. t)
    end
  in
  (* Dense and sparse runs alternate pair by pair, each pair in the
     opposite order to the last, and the speedup is the median of the
     per-pair ratios: host speed drifts by tens of percent within a
     minute, and a pair shares its drift. *)
  let dense_sps, speedup =
    if m > dense_cap then (0., 0.)
    else begin
      let dense = Sinr_measure.linear_power phys in
      ignore (one_run dense 42 ());
      (* Same config, so the same slots; the deliveries may differ, as
         the backends answer interference queries up to the ε slack. *)
      let timed measure_w =
        let (s, _, _), t = time_it (one_run measure_w 42) in
        if s <> slots then failwith "exp_p6: dense run spans other slots";
        t
      in
      let pairs =
        List.init pairs (fun i ->
            if i mod 2 = 0 then
              let ts = timed sparse in
              (ts, timed dense)
            else
              let td = timed dense in
              (timed sparse, td))
      in
      let median l =
        let a = Array.of_list (List.sort compare l) in
        a.(Array.length a / 2)
      in
      ( float_of_int slots /. median (List.map snd pairs),
        median (List.map (fun (ts, td) -> td /. ts) pairs) )
    end
  in
  { m;
    lambda;
    frame = config.Protocol.frame;
    frames_run = frames_n;
    slots;
    injected;
    delivered;
    error_bound = Tiled.max_row_bound tiled;
    sparse_sps = float_of_int slots /. sparse_t;
    par_jobs;
    par_sps;
    dense_sps;
    speedup }

(* --- BENCH_P6.json --- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_json path cells =
  let oc = open_out path in
  let entry ~config ~metric ~value ~jobs =
    Printf.sprintf
      "    {\"config\": \"%s\", \"metric\": \"%s\", \"value\": %g, \
       \"jobs\": %d}"
      (json_escape config) metric value jobs
  in
  let entries =
    List.concat_map
      (fun c ->
        let base =
          Printf.sprintf "link-cloud/eps=%g/delay-select/m=%d" epsilon c.m
        in
        [ entry ~config:(base ^ "/backend=sparse")
            ~metric:"protocol_slots_per_sec" ~value:c.sparse_sps ~jobs:1 ]
        @ (if c.par_jobs = 0 then []
           else
             [ entry ~config:(base ^ "/backend=sparse")
                 ~metric:"protocol_slots_per_sec" ~value:c.par_sps
                 ~jobs:c.par_jobs ])
        @ (if c.dense_sps > 0. then
             [ entry ~config:(base ^ "/backend=dense")
                 ~metric:"protocol_slots_per_sec" ~value:c.dense_sps ~jobs:1;
               entry ~config:base ~metric:"speedup_measured"
                 ~value:c.speedup ~jobs:1 ]
           else []))
      cells
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"dps-bench/1\",\n  \"bench\": \"p6\",\n  \"entries\": \
     [\n%s\n  ]\n}\n"
    (String.concat ",\n" entries);
  close_out oc

let run () =
  Printf.printf "\n=== P6: sparse hot-path protocol throughput ===\n%!";
  let sizes = List.map links (sweep [ 4096; 10_000; 100_000 ]) in
  let dense_cap = 4096 in
  let cells =
    List.map
      (fun m ->
        let runs = if smoke then 2 else if m >= 100_000 then 2 else 3 in
        let c = run_cell ~m ~dense_cap ~runs ~pairs:(reps 11) ~jobs in
        Printf.printf "  m=%d done\n%!" c.m;
        c)
      sizes
  in
  Tbl.print
    ~title:
      (Printf.sprintf
         "P6: protocol on the tiled engine, link cloud, eps=%g (median wall \
          clock)"
         epsilon)
    ~header:
      [ "m"; "lambda"; "T"; "frames"; "slots"; "bound"; "sparse sl/s";
        "par sl/s"; "jobs"; "dense sl/s"; "speedup" ]
    (List.map
       (fun c ->
         [ Tbl.I c.m;
           Tbl.F c.lambda;
           Tbl.I c.frame;
           Tbl.I c.frames_run;
           Tbl.I c.slots;
           Tbl.F c.error_bound;
           Tbl.F c.sparse_sps;
           Tbl.F c.par_sps;
           Tbl.I c.par_jobs;
           Tbl.F c.dense_sps;
           (if c.dense_sps > 0. then Tbl.F2 c.speedup else Tbl.S "-") ])
       cells);
  let out =
    match Sys.getenv_opt "DPS_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_P6.json"
  in
  emit_json out cells;
  Tbl.note "dense skipped above m=%d (memory: ~28 bytes x m^2).\n" dense_cap;
  Tbl.note "wrote %s; schema and reading guide: docs/PERFORMANCE.md\n" out
