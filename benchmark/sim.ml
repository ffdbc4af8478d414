(* The three simulation workloads: one protocol instance each, driven
   frame by frame through [Protocol.run_frame] for a fixed wall-clock
   budget, and at least a fixed number of frames, over which the counts
   are read. Set-up, the untimed warm-up and the measured loop are kept
   apart so work moved between them shows in [setup_s]. *)

open Util
module Rng = Dps_prelude.Rng
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Conflict_graph = Dps_interference.Conflict_graph
module Physics = Dps_sinr.Physics
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Sinr_measure = Dps_sinr.Sinr_measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Trace = Dps_sim.Trace
module Algorithm = Dps_static.Algorithm
module Stochastic = Dps_injection.Stochastic
module Protocol = Dps_core.Protocol

type setup = {
  m : int;
  oracle : Oracle.t;
  config : Protocol.config;
  inj : Stochastic.t;
  tiled : Tiled.t option;
  stages : (string * float) list;  (* set-up layer -> seconds *)
  setup_s : float;
  nnz_per_link : float;
  bytes_per_link : float;
}

type spec = {
  name : string;
  warmup : int;  (* untimed frames before the measured loop *)
  fixed_frames : int;
      (* the counts are read after this many measured frames, so they
         depend on the seed alone, not on how fast the host ran; the loop
         runs at least this long, which is about 2 s untraced *)
  build : smoke:bool -> setup;
}

(* The set-up stages timed so far, newest first. *)
type stages = { start : int; mutable timed : (string * float) list }

let stages () = { start = now_ns (); timed = [] }

let stage st name f =
  let t = now_ns () in
  let x = f () in
  st.timed <- (name, secs (now_ns () - t)) :: st.timed;
  x

(* Deterministic short flows: [flows] generators, each a routable path
   of at most [max_hops] hops, falling back to nearby destinations on
   lines and large grids where random pairs are rarely that close. *)
let short_flows rng g measure ~flows ~max_hops ~target =
  let routing = Routing.make g in
  let n = Graph.node_count g in
  let gens = ref [] in
  let try_pair src dst =
    if src <> dst then
      match Routing.path routing ~src ~dst with
      | Some p when Path.length p <= max_hops -> gens := [ (p, 0.003) ] :: !gens
      | _ -> ()
  in
  let tries = ref 0 in
  while List.length !gens < flows && !tries < 400 * flows do
    incr tries;
    try_pair (Rng.int rng n) (Rng.int rng n)
  done;
  let tries = ref 0 in
  while List.length !gens < flows && !tries < 400 * flows do
    incr tries;
    let src = Rng.int rng (n - 1) in
    try_pair src (Int.min (n - 1) (src + 1 + Rng.int rng max_hops))
  done;
  Stochastic.calibrate (Stochastic.make !gens) measure ~target

let single_link_flows rng g measure ~flows ~target =
  let m = Graph.link_count g in
  let gens =
    List.init flows (fun _ -> [ (Path.of_links g [ Rng.int rng m ], 0.003) ])
  in
  Stochastic.calibrate (Stochastic.make gens) measure ~target

(* Heap bytes per link reachable from a CSR measure. *)
let heap_bytes_per_link measure =
  float_of_int (Obj.reachable_words (Obj.repr measure) * (Sys.word_size / 8))
  /. float_of_int (Measure.size measure)

let finish_setup st ~oracle ~measure ~config ~inj ~tiled =
  let setup_s = secs (now_ns () - st.start) in
  let m = Measure.size measure in
  { m;
    oracle;
    config;
    inj;
    tiled;
    stages = List.rev st.timed;
    setup_s;
    nnz_per_link = float_of_int (Measure.nnz measure) /. float_of_int m;
    bytes_per_link =
      (match tiled with
      | Some t -> float_of_int (Tiled.bytes t) /. float_of_int m
      | None -> heap_bytes_per_link measure) }

(* The network, interference and flows of a workload are one fixed
   instance; --seed drives the arrivals and every random choice of the
   protocol and channel. Drawn per seed, the instance itself moved
   throughput by up to 40% between seeds (calibration scales the whole
   flow set by its most loaded link), which no bound could hold. *)
let instance_seed = 2012

let wireline ~smoke =
  let m = if smoke then 64 else 4096 in
  let st = stages () in
  let g = stage st "network" (fun () -> Topology.line ~nodes:((m / 2) + 1) ~spacing:10.) in
  let measure = stage st "interference" (fun () -> Measure.identity (Graph.link_count g)) in
  let inj =
    stage st "injection" (fun () ->
        short_flows (Rng.create ~seed:instance_seed ()) g measure ~flows:64 ~max_hops:8 ~target:0.3)
  in
  let config =
    stage st "configure" (fun () ->
        Protocol.configure ~algorithm:Dps_static.Oneshot.algorithm ~measure
          ~lambda:0.3 ~max_hops:8 ())
  in
  finish_setup st ~oracle:Oracle.Wireline ~measure ~config ~inj
    ~tiled:None

let conflict ~smoke =
  (* Smallest bidirectional grid with at least the target link count:
     side 33 gives m = 4224. *)
  let target = if smoke then 48 else 4096 in
  let rec side s = if 4 * s * (s - 1) >= target then s else side (s + 1) in
  let s = side 2 in
  let st = stages () in
  let g = stage st "network" (fun () -> Topology.grid ~rows:s ~cols:s ~spacing:10.) in
  let cg, measure =
    stage st "interference" (fun () ->
        let cg = Conflict_graph.distance2 g in
        (cg, Conflict_graph.to_measure cg ~order:(Conflict_graph.degeneracy_order cg)))
  in
  let inj =
    stage st "injection" (fun () ->
        short_flows (Rng.create ~seed:instance_seed ()) g measure ~flows:64 ~max_hops:8 ~target:0.04)
  in
  let config =
    stage st "configure" (fun () ->
        Protocol.configure
          ~algorithm:(Dps_static.Measure_greedy.make ~priority:(Graph.link_length g) ())
          ~measure ~lambda:0.04 ~max_hops:8 ())
  in
  finish_setup st ~oracle:(Oracle.Conflict cg) ~measure ~config
    ~inj ~tiled:None

let cloud_epsilon = 0.1

(* Largest configurable rate from a fixed menu: the feasible rates form
   an interval, so scan downward and keep the first that configures. *)
let pick_rate ~algorithm ~measure =
  let rec go = function
    | [] -> failwith "cloud: no feasible rate"
    | l :: rest -> (
      match Protocol.configure ~algorithm ~measure ~lambda:l ~max_hops:1 () with
      | cfg -> (l, cfg)
      | exception Invalid_argument _ -> go rest)
  in
  go [ 0.05; 0.02; 0.01; 0.005; 0.002; 0.001 ]

let cloud ~smoke =
  let m = if smoke then 64 else 20_000 in
  let rng = Rng.create ~seed:instance_seed () in
  let st = stages () in
  let g, phys =
    stage st "network" (fun () ->
        let g =
          Topology.link_cloud rng ~links:m ~side:(2. *. sqrt (float_of_int m)) ~length:1.
        in
        (g, Physics.make (Params.make ~alpha:4. ~beta:1. ~noise:1e-9 ()) (Power.linear 2.) g))
  in
  let tiled, measure =
    stage st "interference" (fun () ->
        let tiled = Sinr_measure.linear_power_tiled ~epsilon:cloud_epsilon phys in
        (tiled, Tiled.as_measure tiled))
  in
  let lambda, config =
    stage st "configure" (fun () ->
        pick_rate ~algorithm:(Dps_static.Delay_select.make ~c:4. ()) ~measure)
  in
  let inj =
    stage st "injection" (fun () -> single_link_flows rng g measure ~flows:64 ~target:lambda)
  in
  finish_setup st ~oracle:(Oracle.Sinr phys) ~measure ~config ~inj
    ~tiled:(Some tiled)

let specs =
  [ { name = "wireline-oneshot"; warmup = 200; fixed_frames = 1000; build = wireline };
    { name = "conflict-greedy"; warmup = 20; fixed_frames = 100; build = conflict };
    { name = "cloud-sparse"; warmup = 10; fixed_frames = 150; build = cloud } ]

(* --- running --- *)

type totals = {
  slots : int;
  attempts : int;
  successes : int;
  busy : int;
  injected : int;
  delivered : int;
  in_flight : int;
}

let totals channel protocol =
  let tr = Channel.trace channel in
  let r = Protocol.report protocol in
  { slots = Trace.slots tr;
    attempts = Trace.attempts tr;
    successes = Trace.successes tr;
    busy = Trace.busy_slots tr;
    injected = r.Protocol.injected;
    delivered = r.Protocol.delivered;
    in_flight = Protocol.in_flight protocol }

let diff a b =
  { slots = a.slots - b.slots;
    attempts = a.attempts - b.attempts;
    successes = a.successes - b.successes;
    busy = a.busy - b.busy;
    injected = a.injected - b.injected;
    delivered = a.delivered - b.delivered;
    in_flight = a.in_flight - b.in_flight }

let pp_totals t =
  Printf.sprintf "slots=%d attempts=%d successes=%d injected=%d delivered=%d in_flight=%d"
    t.slots t.attempts t.successes t.injected t.delivered t.in_flight

(* A fresh protocol on its own channel, with [Dps_core.Driver]'s
   injection closure: every slot's arrivals from the stochastic source. *)
let instance ?(jobs = 1) (s : setup) config ~seed =
  let rng = Rng.create ~seed () in
  let channel = Channel.create ~rng:(Rng.split rng) ~jobs ~oracle:s.oracle ~m:s.m () in
  let protocol = Protocol.create ~jobs config ~channel in
  let inject_slot slot =
    List.map (fun p -> (p, 0)) (Stochastic.draw s.inj rng ~slot)
  in
  (rng, channel, protocol, inject_slot)

type measured = {
  frames : int;
  frame_ns : Buf.t;
  wall_ns : int;
  window : totals;  (* channel and protocol counts over the first [fixed_frames] *)
  final : totals;
}

(* Warm up, then run frames until [seconds] have passed and at least
   [fixed_frames] have run, or [max_frames] have run, timing each
   [Protocol.run_frame]. *)
let run_untraced (spec : spec) (s : setup) ~seed ~seconds ~max_frames =
  let rng, channel, protocol, inject_slot = instance s s.config ~seed in
  for _ = 1 to spec.warmup do
    Protocol.run_frame protocol rng ~inject_slot
  done;
  let before = totals channel protocol in
  let fixed = Int.min spec.fixed_frames max_frames in
  let at_fixed = ref before in
  let frame_ns = Buf.create () in
  let start = now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let last = ref start in
  while Buf.length frame_ns < max_frames && (!last < deadline || Buf.length frame_ns < fixed) do
    let t0 = now_ns () in
    Protocol.run_frame protocol rng ~inject_slot;
    let t1 = now_ns () in
    Buf.add frame_ns (t1 - t0);
    last := t1;
    if Buf.length frame_ns = fixed then at_fixed := totals channel protocol
  done;
  let wall_ns = now_ns () - start in
  { frames = Buf.length frame_ns;
    frame_ns;
    wall_ns;
    window = diff !at_fixed before;
    final = totals channel protocol }

(* Per-call counters of the wrapped static algorithm, by phase. *)
type phase = {
  mutable requests : int;
  mutable served : int;
  mutable used : int;
  mutable budget : int;
}

let phase () = { requests = 0; served = 0; used = 0; budget = 0 }

let reset_phase p =
  p.requests <- 0;
  p.served <- 0;
  p.used <- 0;
  p.budget <- 0

(* The traced instance's counts after its first [fixed_frames] measured
   frames. *)
type counts = {
  at : totals;  (* since the start, warm-up included *)
  window : totals;  (* over the measured frames *)
  phase1 : phase;
  cleanup : phase;
  packets : int;
}

type traced = {
  spans : Spans.t;  (* the traced instance's frames *)
  plain_ns : Buf.t;  (* the untraced instance's frames *)
  t_wall_ns : int;
  t_start : int;
  t_final : totals;
  plain_final : totals;
  fixed : counts;
  t_minor_words : float;  (* allocated by the untraced instance's frames *)
  t_major_collections : int;  (* both instances *)
}

let l_injection = 0
let l_phase1 = 1
let l_cleanup = 2

(* Two instances of the same run, one plain and one with the injection
   closure and the static algorithm wrapped in timers, advanced frame
   by frame in lockstep so both see the same host: the tracing overhead
   is their difference, not a drift between two runs. Phase 1 is the
   first algorithm call of a frame made with the phase-1 budget; every
   other call is clean-up. *)
let run_traced (spec : spec) (s : setup) ~seed ~seconds ~max_frames =
  let spans = Spans.create [| "injection"; "static.phase1"; "static.cleanup" |] in
  let p1 = phase () and cu = phase () in
  let in_phase1 = ref true in
  let inner = s.config.Protocol.algorithm in
  let phase1_budget = s.config.Protocol.phase1_budget in
  let timed_run ~channel ~rng ~measure ~requests ~budget =
    let t0 = now_ns () in
    let o = inner.Algorithm.run ~channel ~rng ~measure ~requests ~budget in
    let dt = now_ns () - t0 in
    let first = !in_phase1 && budget = phase1_budget in
    in_phase1 := false;
    let ph = if first then p1 else cu in
    Spans.charge spans (if first then l_phase1 else l_cleanup) dt;
    ph.requests <- ph.requests + Array.length requests;
    ph.served <- ph.served + Algorithm.served_count o;
    ph.used <- ph.used + o.Algorithm.slots_used;
    ph.budget <- ph.budget + budget;
    o
  in
  let config =
    { s.config with Protocol.algorithm = { inner with Algorithm.run = timed_run } }
  in
  let rng_p, ch_p, pr_p, inject_p = instance s s.config ~seed in
  let rng, channel, protocol, inject_slot = instance s config ~seed in
  for _ = 1 to spec.warmup do
    Protocol.run_frame pr_p rng_p ~inject_slot:inject_p;
    in_phase1 := true;
    Protocol.run_frame protocol rng ~inject_slot
  done;
  (* Warm-up calls must not count. *)
  List.iter reset_phase [ p1; cu ];
  Spans.clear_open spans;
  let before = totals channel protocol in
  let packets = ref 0 in
  let traced_inject slot =
    let t0 = now_ns () in
    let r = inject_slot slot in
    Spans.charge spans l_injection (now_ns () - t0);
    packets := !packets + List.length r;
    r
  in
  let fixed = Int.min spec.fixed_frames max_frames in
  let counts = ref None in
  let plain_ns = Buf.create () in
  let minor = ref 0. in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let last = ref start in
  while Spans.frames spans < max_frames && (!last < deadline || Spans.frames spans < fixed) do
    let m0 = Gc.minor_words () in
    let t0 = now_ns () in
    Protocol.run_frame pr_p rng_p ~inject_slot:inject_p;
    let t1 = now_ns () in
    minor := !minor +. (Gc.minor_words () -. m0);
    Buf.add plain_ns (t1 - t0);
    in_phase1 := true;
    let t2 = now_ns () in
    Protocol.run_frame protocol rng ~inject_slot:traced_inject;
    let t3 = now_ns () in
    Spans.frame spans ~start:t2 ~stop:t3;
    last := t3;
    if Spans.frames spans = fixed then begin
      let at = totals channel protocol in
      counts :=
        Some
          { at;
            window = diff at before;
            phase1 = { p1 with requests = p1.requests };
            cleanup = { cu with requests = cu.requests };
            packets = !packets }
    end
  done;
  let wall = now_ns () - start in
  { spans;
    plain_ns;
    t_wall_ns = wall;
    t_start = start;
    t_final = totals channel protocol;
    plain_final = totals ch_p pr_p;
    fixed = Option.get !counts;
    t_minor_words = !minor;
    t_major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 }

(* --- the workload --- *)

let check_conservation what (t : totals) =
  check (t.injected = t.delivered + t.in_flight)
    "%s: injected %d <> delivered %d + in flight %d" what t.injected t.delivered t.in_flight

(* Fan-out must not change a run: on the tiled measure, the first
   frames at jobs = min(2, nproc) against the same frames at jobs = 1.
   It runs after the measured loop, so that loop never shares the
   process with a second domain. Timed as a workload of its own, the
   fan-out spread up to 40% between runs on a shared 2-vCPU host: every
   interference call then waits on the second vCPU. *)
let check_jobs_invariance (s : setup) ~seed ~frames =
  let jobs = Int.min 2 (Dps_par.Par.recommended_jobs ()) in
  match s.tiled with
  | Some t when jobs > 1 ->
    let totals_after jobs config =
      let rng, channel, protocol, inject_slot = instance ~jobs s config ~seed in
      for _ = 1 to frames do
        Protocol.run_frame protocol rng ~inject_slot
      done;
      totals channel protocol
    in
    let a = totals_after 1 s.config in
    let b = totals_after jobs { s.config with Protocol.measure = Tiled.as_measure ~jobs t } in
    check (a = b) "jobs=%d disagrees with jobs=1 after %d frames: %s vs %s" jobs frames
      (pp_totals b) (pp_totals a)
  | _ -> ()

let lost (t : totals) = abs (t.injected - t.delivered - t.in_flight)

(* The untraced pass: the end-to-end metrics. *)
let end_to_end (spec : spec) (s : setup) ~seed ~seconds ~max_frames ~probes =
  let u = run_untraced spec s ~seed ~seconds ~max_frames in
  check_conservation "run" u.final;
  let slots_per_sec = float_of_int s.config.Protocol.frame *. peak_rate u.frame_ns ~window_ns in
  Printf.printf "%s: m=%d T=%d, %d frames in %.2f s; first %d: %s\n%!" spec.name s.m
    s.config.Protocol.frame u.frames (secs u.wall_ns)
    (Int.min spec.fixed_frames max_frames) (pp_totals u.window);
  ( u.final.injected,
    lost u.final,
    [ ("slots_per_sec", slots_per_sec);
      (* hops per slot over the first [fixed_frames], fixed for a seed *)
      ("hops_per_sec", slots_per_sec *. float_of_int u.window.successes /. float_of_int u.window.slots);
      ("frame_p10_us", quantile (Buf.to_floats u.frame_ns) 0.1 *. 1e-3);
      ("setup_s", median (Array.of_list (s.setup_s :: probes)));
      ("peak_rss_mb", peak_rss_mb ()) ] )

(* The traced pass: the per-layer metrics. *)
let per_layer (spec : spec) (s : setup) ~seed ~seconds ~max_frames ~run_dir =
  let t = run_traced spec s ~seed ~seconds ~max_frames in
  check_conservation "traced run" t.t_final;
  check (t.t_final = t.plain_final) "traced totals differ from untraced: %s vs %s"
    (pp_totals t.t_final) (pp_totals t.plain_final);
  let c = t.fixed and fixed = Int.min spec.fixed_frames max_frames in
  Printf.printf "%s: m=%d T=%d, %d frame pairs in %.2f s; first %d: %s\n%!" spec.name s.m
    s.config.Protocol.frame (Spans.frames t.spans) (secs t.t_wall_ns) fixed (pp_totals c.window);
  let sp = t.spans in
  let frames = float_of_int (Spans.frames sp) in
  let per_frame_us layer = usecs (Spans.layer_total sp layer) /. frames in
  let covered = Spans.covered sp in
  let traced_times = Array.init (Spans.frames sp) (fun i -> float_of_int (Spans.duration sp i)) in
  let q, tail_v = tail traced_times in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let stage_s name = List.assoc name s.stages in
  let w = c.window in
  Spans.write sp
    ~path:(Filename.concat run_dir (Printf.sprintf "spans-%s-%d.jsonl" spec.name seed))
    ~workload:spec.name ~frame_name:"protocol.run_frame" ~root_start:t.t_start
    ~root_stop:(t.t_start + t.t_wall_ns);
  ( t.t_final.injected + t.plain_final.injected,
    lost t.t_final + lost t.plain_final,
    [ ("network.build_s", stage_s "network");
      ("interference.build_s", stage_s "interference");
      ("interference.nnz_per_link", s.nnz_per_link);
      ("interference.bytes_per_link", s.bytes_per_link);
      ("injection.calibrate_s", stage_s "injection");
      ("core.configure_s", stage_s "configure");
      ("core.frame_p50_us", median traced_times *. 1e-3);
      ("core.frame_tail_us", tail_v *. 1e-3);
      ("core.frame_tail_q", q);
      ("core.frame_samples", frames);
      ("core.self_us",
       usecs (covered - Spans.layer_total sp l_injection - Spans.layer_total sp l_phase1
              - Spans.layer_total sp l_cleanup)
       /. frames);
      ("core.in_flight_frac", frac c.at.in_flight c.at.injected);
      ("injection.us", per_frame_us l_injection);
      ("injection.packets", float_of_int c.packets /. float_of_int fixed);
      ("static.phase1_us", per_frame_us l_phase1);
      ("static.cleanup_us", per_frame_us l_cleanup);
      ("static.phase1_served_frac", frac c.phase1.served c.phase1.requests);
      ("static.cleanup_served_frac", frac c.cleanup.served c.cleanup.requests);
      ("static.slots_used_frac",
       frac (c.phase1.used + c.cleanup.used) (c.phase1.budget + c.cleanup.budget));
      ("sim.busy_frac", frac w.busy w.slots);
      ("sim.attempts_per_busy_slot", frac w.attempts w.busy);
      ("sim.success_frac", frac w.successes w.attempts);
      ("gc.minor_words_per_slot",
       t.t_minor_words /. (frames *. float_of_int s.config.Protocol.frame));
      ("gc.major_per_kframe", 1000. *. float_of_int t.t_major_collections /. (2. *. frames));
      ("trace.overhead_frac",
       (median traced_times /. median (Buf.to_floats t.plain_ns)) -. 1.);
      ("trace.unattributed_frac",
       float_of_int (t.t_wall_ns - covered - Buf.sum t.plain_ns) /. float_of_int t.t_wall_ns) ] )

let run (spec : spec) ~seed ~seconds ~smoke ~trace ~probe ~setup_samples ~run_dir =
  let probes = List.init (setup_samples - 1) (fun _ -> probe ()) in
  let s = spec.build ~smoke in
  let max_frames = if smoke then 20 else max_int in
  Option.iter
    (fun t ->
      let bound = Measure.error_bound s.config.Protocol.measure in
      check (Tiled.max_row_bound t <= cloud_epsilon && bound <= cloud_epsilon)
        "tiled error bound %g exceeds epsilon %g" bound cloud_epsilon)
    s.tiled;
  let result =
    if trace then per_layer spec s ~seed ~seconds ~max_frames ~run_dir
    else end_to_end spec s ~seed ~seconds ~max_frames ~probes
  in
  check_jobs_invariance s ~seed ~frames:(if smoke then 3 else 20);
  result
