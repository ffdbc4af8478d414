(* dps_run — command-line front end for ad-hoc protocol runs.

   Pick a topology, an interference model, a static algorithm and an
   injection source; the tool sizes the protocol, runs it, and prints the
   stability report.

   Examples:
     dps_run --model sinr-linear --topology grid:4x4 --rate 0.04
     dps_run --model mac --algorithm decay --stations 8 --rate 0.15
     dps_run --model wireline --topology line:8 --rate 0.3 --adversary burst
     dps_run --model sinr-linear --rate 0.04 --trace t.jsonl --metrics m.csv
     dps_run --model mac --rate 0.15 --reps 8 --jobs 4
     dps_run --model sinr-linear --topology grid:8x8 --rate 0.04 --sparse 0.1

   The full flag reference lives in docs/CLI.md; the trace/metrics output
   format in docs/OBSERVABILITY.md.
*)

module Rng = Dps_prelude.Rng
module Graph = Dps_network.Graph
module Routing = Dps_network.Routing
module Path = Dps_network.Path
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Tiling = Dps_geometry.Tiling
module Algorithm = Dps_static.Algorithm
module Stochastic = Dps_injection.Stochastic
module Adversary = Dps_injection.Adversary
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Stability = Dps_core.Stability
module Plan = Dps_faults.Plan
module Injector = Dps_faults.Injector
module Telemetry = Dps_telemetry.Telemetry
module Sink = Dps_telemetry.Sink
module Scenario = Dps_serve.Scenario

let build_traffic rng g measure ~flows ~rate ~max_hops ~mac =
  if mac then begin
    let m = Graph.link_count g in
    let per = rate /. float_of_int m in
    Stochastic.make (List.init m (fun i -> [ (Path.of_links g [ i ], per) ]))
  end
  else begin
    let routing = Routing.make g in
    let n = Graph.node_count g in
    let gens = ref [] in
    let tries = ref 0 in
    while List.length !gens < flows && !tries < 500 * flows do
      incr tries;
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src <> dst then
        match Routing.path routing ~src ~dst with
        | Some p when Path.length p <= max_hops ->
          gens := [ (p, 0.001) ] :: !gens
        | _ -> ()
    done;
    if !gens = [] then failwith "no routable flows in this topology";
    Stochastic.calibrate (Stochastic.make !gens) measure ~target:rate
  end

(* Open the requested sinks (empty when neither --trace nor --metrics is
   given, in which case the bundle is [Telemetry.disabled] and the run pays
   no instrumentation cost). Path "-" means stdout: the sink writes to it
   but the closer only flushes it — stdout stays with the process — and
   the human-readable output moves to stderr (see [report_channel]) so the
   machine-readable stream never interleaves with the report. Returns the
   bundle and a closer that flushes everything and closes every opened
   file. *)
let make_telemetry ~trace ~metrics =
  (match (trace, metrics) with
  | Some "-", Some "-" ->
    failwith "--trace - and --metrics - cannot share stdout"
  | _ -> ());
  let opened = ref [] in
  let open_sink path mk =
    if path = "-" then mk stdout
    else begin
      let oc = open_out path in
      opened := oc :: !opened;
      mk oc
    end
  in
  let sinks =
    List.concat
      [ (match trace with
        | None -> []
        | Some path -> [ open_sink path Sink.jsonl ]);
        (match metrics with
        | None -> []
        | Some path -> [ open_sink path Sink.csv ]) ]
  in
  match sinks with
  | [] -> (Telemetry.disabled, fun () -> ())
  | sinks ->
    let t = Telemetry.make ~sinks () in
    ( t,
      fun () ->
        (* Flush through the bundle (covers the stdout sink), then close
           only the channels this function opened. *)
        Telemetry.flush t;
        List.iter close_out !opened )

(* Where the config line and the report go: stderr when a sink claimed
   stdout, stdout otherwise. *)
let report_channel ~trace ~metrics =
  if trace = Some "-" || metrics = Some "-" then stderr else stdout

(* HIGH:LOW[:POLICY] with POLICY in {drop-newest, reject}. *)
let parse_guard s =
  let watermark what v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> failwith ("--guard: " ^ what ^ " watermark must be an integer")
  in
  let make ?policy h l =
    try Protocol.guard ?policy ~high:(watermark "high" h) ~low:(watermark "low" l) ()
    with Invalid_argument _ ->
      failwith "--guard: watermarks must satisfy 0 <= LOW < HIGH"
  in
  match String.split_on_char ':' s with
  | [ h; l ] -> make h l
  | [ h; l; policy ] ->
    let policy =
      match policy with
      | "drop-newest" -> Protocol.Drop_newest
      | "reject" -> Protocol.Reject_admission
      | other -> failwith ("--guard: unknown policy: " ^ other)
    in
    make ~policy h l
  | _ -> failwith "--guard must be HIGH:LOW or HIGH:LOW:POLICY"

(* Episodes from every --fault occurrence plus the --fault-plan file,
   merged into one plan (Plan.make re-sorts by first slot). *)
let build_plan ~fault_specs ~fault_plan =
  let from_flags =
    List.concat_map (fun s -> Plan.episodes (Plan.parse s)) fault_specs
  in
  let from_file =
    match fault_plan with
    | None -> []
    | Some file -> Plan.episodes (Plan.load file)
  in
  Plan.make (from_flags @ from_file)

(* SIGINT/SIGTERM land as {!Driver.Interrupted} inside the frame loop:
   the driver emits a final metrics snapshot through the same code path
   as periodic ones and unwinds to the telemetry flush, so an
   interrupted run leaves a coherent trace instead of a dropped tail. *)
let install_signal_handlers () =
  let raise_interrupt _ = raise Driver.Interrupted in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle raise_interrupt);
  Sys.set_signal Sys.sigint (Sys.Signal_handle raise_interrupt)

let run model_name topology algorithm_name rate epsilon frames flows adversary
    stations loss seed reps jobs trace metrics metrics_every trace_packets
    fault_specs fault_plan guard sparse tile =
  install_signal_handlers ();
  if reps < 1 then failwith "--reps must be >= 1";
  (match sparse with
  | Some eps when eps < 0. -> failwith "--sparse epsilon must be >= 0"
  | None when tile <> None -> failwith "--tile requires --sparse"
  | _ -> ());
  (match tile with
  | Some c when c <= 0. -> failwith "--tile cell must be > 0"
  | _ -> ());
  if jobs < 1 then failwith "--jobs must be >= 1";
  (* Oversubscribing domains only costs context switches; clamp to what
     the runtime says this machine runs well. Results are identical for
     every jobs value (docs/PARALLELISM.md), so clamping is invisible. *)
  let jobs = Int.min jobs (Dps_par.Par.recommended_jobs ()) in
  if reps > 1 && (fault_specs <> [] || fault_plan <> None || guard <> None)
  then failwith "--reps does not compose with --fault/--fault-plan/--guard";
  if reps > 1 && trace_packets <> None then
    failwith
      "--reps does not compose with --trace-packets (packet ids would \
       collide across replicas)";
  let spec =
    Scenario.make ?algorithm:algorithm_name ~epsilon ~stations ~loss ?sparse
      ?tile ~model:model_name ~topology ~rate ()
  in
  let built = Scenario.build ~jobs spec in
  let g = built.Scenario.graph in
  let measure = built.Scenario.measure in
  let oracle = built.Scenario.oracle in
  let tiled = built.Scenario.tiled in
  let algorithm = built.Scenario.algorithm in
  let config = built.Scenario.config in
  let max_hops = built.Scenario.max_hops in
  let topology = if built.Scenario.mac then "mac" else topology in
  let plan = build_plan ~fault_specs ~fault_plan in
  let guard = Option.map parse_guard guard in
  let rng = Rng.create ~seed () in
  let out = report_channel ~trace ~metrics in
  Printf.fprintf out
    "model=%s topology=%s m=%d algorithm=%s rate=%.4f\nframe T=%d (phase1 %d, \
     clean-up %d)\n"
    model_name topology (Measure.size measure) algorithm.Algorithm.name rate
    config.Protocol.frame config.Protocol.phase1_budget
    config.Protocol.cleanup_budget;
  Option.iter
    (fun tiled ->
      let m = Tiled.size tiled in
      Printf.fprintf out
        "sparse: epsilon=%g tiles=%d near=%d nnz=%d (dense %d) \
         max-row-bound=%.3g\n"
        (Tiled.epsilon tiled)
        (Tiling.tiles (Tiled.tiling tiled))
        (Tiled.near_radius tiled) (Tiled.nnz tiled) (m * m)
        (Tiled.max_row_bound tiled))
    tiled;
  let source =
    match adversary with
    | None ->
      Driver.Stochastic
        (build_traffic rng g measure ~flows ~rate ~max_hops
           ~mac:built.Scenario.mac)
    | Some kind ->
      let routing = Routing.make g in
      let n = Graph.node_count g in
      let paths = ref [] in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst && List.length !paths < flows then
            match Routing.path routing ~src ~dst with
            | Some p when Path.length p <= max_hops -> paths := p :: !paths
            | _ -> ()
        done
      done;
      let w = 2 * config.Protocol.frame in
      let adv =
        match kind with
        | "burst" -> Adversary.burst ~measure ~w ~rate ~paths:!paths
        | "smooth" -> Adversary.smooth ~measure ~w ~rate ~paths:!paths
        | "sawtooth" -> Adversary.sawtooth ~measure ~w ~rate ~paths:!paths
        | "single-target" -> Adversary.single_target ~measure ~w ~rate ~paths:!paths
        | "rotating" -> Adversary.rotating ~measure ~w ~rate ~paths:!paths
        | other -> failwith ("unknown adversary: " ^ other)
      in
      Driver.Adversarial adv
  in
  (match trace_packets with
  | Some k when k < 1 -> failwith "--trace-packets: K must be >= 1"
  | Some _ when trace = None ->
    failwith "--trace-packets needs --trace (there is no trace to write to)"
  | _ -> ());
  let telemetry, close_telemetry = make_telemetry ~trace ~metrics in
  if reps > 1 then begin
    (* Replicated runs over consecutive seeds: one line per replica in
       seed order, then the aggregate — the run itself and its merged
       telemetry are identical for every --jobs value. *)
    let seeds = List.init reps (fun i -> seed + i) in
    let reports =
      Fun.protect ~finally:close_telemetry (fun () ->
          Driver.run_many ~jobs ~telemetry ~metrics_every ~config ~oracle
            ~source ~seeds ~frames ())
    in
    let assess (r : Protocol.report) = Stability.assess r.Protocol.in_system in
    List.iter2
      (fun sd (r : Protocol.report) ->
        Printf.fprintf out
          "seed=%d injected=%d delivered=%d max-queue=%d verdict=%s\n" sd
          r.Protocol.injected r.Protocol.delivered r.Protocol.max_queue
          (Stability.to_string (assess r)))
      seeds reports;
    let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    let stable =
      List.length
        (List.filter (fun r -> Stability.is_stable (assess r)) reports)
    in
    Printf.fprintf out "replicas=%d stable=%d/%d injected=%d delivered=%d\n"
      reps stable reps
      (total (fun r -> r.Protocol.injected))
      (total (fun r -> r.Protocol.delivered))
  end
  else begin
    let r, injector =
      Fun.protect ~finally:close_telemetry (fun () ->
          if Plan.is_empty plan && guard = None then
            ( Driver.run_traced ?packet_trace:trace_packets ~jobs ~telemetry
                ~metrics_every ~config ~oracle ~source ~frames ~rng (),
              None )
          else
            let r, injector =
              Driver.run_faulted_traced ?packet_trace:trace_packets ?guard
                ~jobs ~telemetry ~metrics_every ~config ~oracle ~source ~plan
                ~frames ~rng ()
            in
            (r, Some injector))
    in
    (match injector with
    | Some inj when not (Plan.is_empty plan) ->
      Printf.fprintf out
        "faults: suppressed %d (outage %d, jam %d, loss %d, degrade %d)\n"
        (Injector.suppressed inj)
        (Injector.suppressed_of inj "outage")
        (Injector.suppressed_of inj "jam")
        (Injector.suppressed_of inj "loss")
        (Injector.suppressed_of inj "degrade")
    | _ -> ());
    let ppf = Format.formatter_of_out_channel out in
    Format.fprintf ppf "@\n%a@\n%!"
      (Dps_core.Report_pp.pp ~frame:config.Protocol.frame)
      r
  end

open Cmdliner

let model =
  Arg.(
    value
    & opt string "sinr-linear"
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Interference model: sinr-linear, sinr-sqrt, sinr-pc, conflict-d2, \
           node-constraint, radio, mac, wireline.")

let topology =
  Arg.(
    value
    & opt string "grid:4x4"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:"Topology: grid:RxC, line:N, random:N (mac model ignores this).")

let algorithm =
  Arg.(
    value
    & opt (some string) None
    & info [ "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Static algorithm: delay-select, contention, \
           contention-transformed, oneshot, decay, round-robin, \
           measure-greedy. Default: model-appropriate.")

let rate =
  Arg.(
    value & opt float 0.04
    & info [ "rate" ] ~docv:"LAMBDA" ~doc:"Injection rate λ = ||W·F||_inf.")

let epsilon =
  Arg.(
    value & opt float 0.5
    & info [ "epsilon" ] ~docv:"EPS" ~doc:"Protocol headroom ε in (0, 1].")

let frames =
  Arg.(
    value & opt int 150
    & info [ "frames" ] ~docv:"N" ~doc:"Number of time frames to simulate.")

let flows =
  Arg.(
    value & opt int 10
    & info [ "flows" ] ~docv:"N" ~doc:"Number of source-destination flows.")

let adversary =
  Arg.(
    value
    & opt (some string) None
    & info [ "adversary" ] ~docv:"KIND"
        ~doc:
          "Replace stochastic traffic by a window adversary: burst, smooth, \
           sawtooth, single-target, rotating.")

let stations =
  Arg.(
    value & opt int 8
    & info [ "stations" ] ~docv:"N" ~doc:"Stations for the mac model.")

let loss =
  Arg.(
    value & opt float 0.
    & info [ "loss" ]
        ~docv:"P"
        ~doc:"Per-transmission loss probability (unreliable networks).")

let seed =
  Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let reps =
  Arg.(
    value & opt int 1
    & info [ "reps" ] ~docv:"R"
        ~doc:
          "Replicate the run over $(docv) consecutive seeds (SEED ... \
           SEED+R-1): one report line per replica plus an aggregate. Does \
           not compose with $(b,--fault), $(b,--guard) or \
           $(b,--trace-packets). See docs/PARALLELISM.md.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Parallelism on $(docv) domains (clamped to the machine's \
           recommended domain count) for three things: $(b,--reps) replicas \
           fan out one per domain, the $(b,--sparse) measure is built tile \
           by tile, and a stale interference rescan that finds 4096 or \
           more touched rows splits them across domains. Results and \
           telemetry are identical for every $(docv) — parallelism only \
           changes the wall clock. Rejected when $(docv) < 1.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL telemetry trace (spans, events and metric \
           snapshots) to $(docv). Schema: docs/OBSERVABILITY.md.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write metric snapshots as CSV (frame,metric,labels,kind,value) \
           to $(docv).")

let metrics_every =
  Arg.(
    value & opt int 10
    & info [ "metrics-every" ] ~docv:"N"
        ~doc:
          "Emit a metrics snapshot every $(docv) frames (0 = final snapshot \
           only). Only meaningful with $(b,--trace) or $(b,--metrics).")

let trace_packets =
  Arg.(
    value
    & opt ~vopt:(Some 1) (some int) None
    & info [ "trace-packets" ] ~docv:"K"
        ~doc:
          "Add per-packet lifecycle events (packet.inject, packet.hop, \
           packet.deliver, packet.shed) to the $(b,--trace) stream, \
           head-sampled 1-in-$(docv) by packet id (default 1 = every \
           packet). Sampling is deterministic and sticky per packet, so \
           sampled lifecycles are complete. Requires $(b,--trace).")

let fault =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a fault episode: KIND:START-END with KIND one of outage, \
           jam, loss, degrade, and an inclusive slot interval. Optional \
           fields narrow the target and set parameters: links=ID+ID..., \
           near=CENTER~THRESH, p=P (loss), gamma=G (degrade). Repeatable; \
           each occurrence may also hold a comma-separated list. Grammar \
           and semantics: docs/FAULTS.md.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Load fault episodes from $(docv): one $(b,--fault) spec per \
           line, $(b,#) comments. Merged with any $(b,--fault) flags.")

let guard =
  Arg.(
    value
    & opt (some string) None
    & info [ "guard" ] ~docv:"HIGH:LOW[:POLICY]"
        ~doc:
          "Enable the overload guard with hysteresis watermarks on the \
           failed-buffer potential: shedding starts when it reaches HIGH \
           and stops once it drains to LOW. POLICY is drop-newest \
           (default) or reject. See DESIGN.md §9.")

let sparse =
  Arg.(
    value
    & opt (some float) None
    & info [ "sparse" ] ~docv:"EPS"
        ~doc:
          "Build the interference matrix through the ε-sparsified tiled \
           engine instead of the dense O(m²) scan (sinr-linear only): \
           entries whose summed contribution to any row of W·R is provably \
           below $(docv)·‖R‖∞ are dropped, the per-row dropped mass is \
           recorded, and a summary line is printed. $(docv) = 0 reproduces \
           the dense matrix exactly. See docs/SCALING.md.")

let tile =
  Arg.(
    value
    & opt (some float) None
    & info [ "tile" ] ~docv:"CELL"
        ~doc:
          "Tile side for $(b,--sparse) (default: sized for a mean \
           occupancy of ~8 links per tile). Changing it moves entries \
           between the exact near field and the bounded far field; the \
           result differs only within the $(b,--sparse) bound.")

let run_safely model_name topology algorithm_name rate epsilon frames flows
    adversary stations loss seed reps jobs trace metrics metrics_every
    trace_packets fault_specs fault_plan guard sparse tile =
  try
    run model_name topology algorithm_name rate epsilon frames flows adversary
      stations loss seed reps jobs trace metrics metrics_every trace_packets
      fault_specs fault_plan guard sparse tile
  with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "dps_run: %s\n" msg;
    exit 1
  | Driver.Interrupted ->
    (* Telemetry already holds the final snapshot (the driver emits it
       before unwinding, and [Fun.protect] flushed the sinks). 130 =
       128 + SIGINT, the conventional interrupted-run exit status. *)
    Printf.eprintf "dps_run: interrupted; telemetry flushed\n";
    exit 130

let cmd =
  let doc = "dynamic packet scheduling in wireless networks (PODC 2012)" in
  let man =
    [ `S Manpage.s_examples;
      `P "A small SINR run on the default 4x4 grid:";
      `Pre "  dps_run --model sinr-linear --topology grid:4x4 --rate 0.04";
      `P "Decay on a shared MAC channel:";
      `Pre "  dps_run --model mac --algorithm decay --stations 8 --rate 0.15";
      `P "A burst adversary on a wireline path:";
      `Pre
        "  dps_run --model wireline --topology line:8 --rate 0.3 --adversary \
         burst";
      `P "Record a telemetry trace and periodic metric snapshots:";
      `Pre
        "  dps_run --model sinr-linear --rate 0.04 --trace t.jsonl --metrics \
         m.csv --metrics-every 5";
      `P
        "Trace every packet's lifecycle and pipe it straight into the \
         analyzer (the report moves to stderr):";
      `Pre
        "  dps_run --model wireline --topology line:8 --rate 0.3 --trace - \
         --trace-packets | dps_trace summary -";
      `P
        "Build W through the ε-sparsified tiled engine instead of the \
         dense O(m²) scan (docs/SCALING.md):";
      `Pre
        "  dps_run --model sinr-linear --topology grid:8x8 --rate 0.04 \
         --sparse 0.1";
      `P "A jamming burst absorbed by the overload guard:";
      `Pre
        "  dps_run --model wireline --topology line:8 --rate 0.3 --fault \
         jam:2000-4000 --guard 60:10";
      `P
        "Eight replicated runs over consecutive seeds, four domains in \
         parallel (same results as --jobs 1, sooner):";
      `Pre
        "  dps_run --model mac --algorithm decay --stations 8 --rate 0.15 \
         --reps 8 --jobs 4";
      `S Manpage.s_see_also;
      `P
        "docs/CLI.md (full flag reference with one example per interference \
         model); docs/OBSERVABILITY.md (trace schema and metric catalogue)."
    ]
  in
  Cmd.v
    (Cmd.info "dps_run" ~doc ~man)
    Term.(
      const run_safely $ model $ topology $ algorithm $ rate $ epsilon $ frames
      $ flows $ adversary $ stations $ loss $ seed $ reps $ jobs $ trace
      $ metrics $ metrics_every $ trace_packets $ fault $ fault_plan $ guard
      $ sparse $ tile)

let () = exit (Cmd.eval cmd)
