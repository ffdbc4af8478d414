(* Fault subsystem tests: plan parsing and validation, per-kind injector
   behaviour against a real channel, fault telemetry, the protocol
   overload guard, and faulted-run reproducibility. *)

module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Graph = Dps_network.Graph
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Lists = Reference.Lists
module Plan = Dps_faults.Plan
module Injector = Dps_faults.Injector
module Oneshot = Dps_static.Oneshot
module Stochastic = Dps_injection.Stochastic
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Stability = Dps_core.Stability
module Telemetry = Dps_telemetry.Telemetry
module Memory_sink = Dps_telemetry.Memory_sink
module Event = Dps_telemetry.Event
module Metrics = Dps_telemetry.Metrics

let rejects name f =
  try
    ignore (f ());
    Alcotest.fail (name ^ ": accepted")
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------- parsing *)

let test_parse_kinds () =
  (match Plan.parse_spec "jam:100-160:links=0+3" with
  | { Plan.kind = Plan.Jam; target = Plan.Links [ 0; 3 ];
      first_slot = 100; last_slot = 160 } -> ()
  | _ -> Alcotest.fail "jam spec");
  (match Plan.parse_spec "loss:50-120:p=0.3" with
  | { Plan.kind = Plan.Loss p; target = Plan.All;
      first_slot = 50; last_slot = 120 } ->
    Alcotest.(check (float 1e-9)) "p" 0.3 p
  | _ -> Alcotest.fail "loss spec");
  (match Plan.parse_spec "degrade:80-150:gamma=3" with
  | { Plan.kind = Plan.Degrade g; _ } ->
    Alcotest.(check (float 1e-9)) "gamma" 3. g
  | _ -> Alcotest.fail "degrade spec");
  (match Plan.parse_spec "outage:0-10" with
  | { Plan.kind = Plan.Outage; target = Plan.All;
      first_slot = 0; last_slot = 10 } -> ()
  | _ -> Alcotest.fail "outage spec");
  match Plan.parse_spec "jam:5-9:near=2~0.5" with
  | { Plan.target = Plan.Neighbourhood { center = 2; threshold }; _ } ->
    Alcotest.(check (float 1e-9)) "threshold" 0.5 threshold
  | _ -> Alcotest.fail "neighbourhood spec"

let test_parse_rejects () =
  List.iter
    (fun s -> rejects s (fun () -> Plan.parse_spec s))
    [ "jam:10-5";  (* inverted interval *)
      "loss:0-10:p=1.5";  (* probability out of range *)
      "loss:0-10";  (* loss without probability *)
      "degrade:0-10:gamma=0.5";  (* factor below 1 *)
      "degrade:0-10";  (* degrade without factor *)
      "jam:0-10:p=0.3";  (* field on the wrong kind *)
      "outage:0-10:gamma=2";  (* field on the wrong kind *)
      "banana:0-10";  (* unknown kind *)
      "jam:0-10:links=";  (* empty link set *)
      "jam";  (* no interval *)
      "jam:0-10:wat=1"  (* unknown field *) ]

let test_parse_plan_sorts () =
  let plan = Plan.parse "loss:30-40:p=0.5,jam:10-20" in
  match Plan.episodes plan with
  | [ { Plan.first_slot = 10; _ }; { Plan.first_slot = 30; _ } ] -> ()
  | _ -> Alcotest.fail "episodes not sorted by first slot"

let test_make_validates () =
  let ep = { Plan.kind = Plan.Jam; target = Plan.All;
             first_slot = 0; last_slot = 5 } in
  rejects "negative first slot" (fun () ->
      Plan.make [ { ep with Plan.first_slot = -1 } ]);
  rejects "inverted" (fun () -> Plan.make [ { ep with Plan.last_slot = -1 } ]);
  rejects "negative link id" (fun () ->
      Plan.make [ { ep with Plan.target = Plan.Links [ -2 ] } ]);
  rejects "empty link set" (fun () ->
      Plan.make [ { ep with Plan.target = Plan.Links [] } ]);
  rejects "threshold over 1" (fun () ->
      Plan.make
        [ { ep with
            Plan.target = Plan.Neighbourhood { center = 0; threshold = 1.5 } }
        ]);
  ignore (Plan.make [ ep ])

let test_plan_queries () =
  Alcotest.(check bool) "empty" true (Plan.is_empty Plan.empty);
  Alcotest.(check bool) "empty needs no rng" false (Plan.needs_rng Plan.empty);
  let jam = Plan.parse "jam:0-10" in
  Alcotest.(check bool) "jam non-empty" false (Plan.is_empty jam);
  Alcotest.(check bool) "jam needs no rng" false (Plan.needs_rng jam);
  Alcotest.(check bool) "jam needs no measure" false (Plan.needs_measure jam);
  Alcotest.(check bool) "loss needs rng" true
    (Plan.needs_rng (Plan.parse "loss:0-10:p=0.5"));
  Alcotest.(check bool) "degrade needs measure" true
    (Plan.needs_measure (Plan.parse "degrade:0-10:gamma=2"));
  Alcotest.(check bool) "neighbourhood needs measure" true
    (Plan.needs_measure (Plan.parse "jam:0-10:near=0~0.5"))

let with_temp_file f =
  let path = Filename.temp_file "dps_faults" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_load_file () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        "# a comment\n\njam:10-20:links=0+1\nloss:30-40:p=0.25\n";
      close_out oc;
      let plan = Plan.load path in
      Alcotest.(check int) "episodes" 2 (List.length (Plan.episodes plan)))

let test_load_reports_line () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "jam:10-20\nbanana:0-10\n";
      close_out oc;
      try
        ignore (Plan.load path);
        Alcotest.fail "malformed plan file accepted"
      with Invalid_argument msg ->
        Alcotest.(check bool) ("line number in: " ^ msg) true
          (let rec has i =
             i + 1 <= String.length msg && (msg.[i] = '2' || has (i + 1))
           in
           has 0))

(* ----------------------------------------------- injector vs a channel *)

(* A 2-link wireline channel with the given plan installed; every attempt
   would succeed were it not for the faults. *)
let jammed_channel ?rng ?measure plan =
  let injector = Injector.create ?rng ?measure ~m:2 plan in
  let channel =
    Channel.create ?measure ~faults:(Injector.hook injector)
      ~oracle:Oracle.Wireline ~m:2 ()
  in
  (channel, injector)

let test_outage_interval () =
  let channel, injector =
    jammed_channel (Plan.parse "outage:1-2:links=0")
  in
  Alcotest.(check (list int)) "slot 0: before episode" [ 0; 1 ]
    (List.sort compare (Lists.step channel [ 0; 1 ]));
  Alcotest.(check (list int)) "slot 1: link 0 out" [ 1 ]
    (Lists.step channel [ 0; 1 ]);
  Alcotest.(check int) "one episode active" 1
    (Injector.active_episodes injector);
  Alcotest.(check (list int)) "slot 2: still out" [ 1 ]
    (Lists.step channel [ 0; 1 ]);
  Alcotest.(check (list int)) "slot 3: episode over" [ 0; 1 ]
    (List.sort compare (Lists.step channel [ 0; 1 ]));
  Alcotest.(check int) "no episode active" 0
    (Injector.active_episodes injector);
  Alcotest.(check int) "outage suppressions" 2
    (Injector.suppressed_of injector "outage");
  Alcotest.(check int) "total" 2 (Injector.suppressed injector)

let test_jam_all_links () =
  let channel, injector = jammed_channel (Plan.parse "jam:0-0") in
  Alcotest.(check (list int)) "jammed slot" [] (Lists.step channel [ 0; 1 ]);
  Alcotest.(check (list int)) "next slot clean" [ 0; 1 ]
    (List.sort compare (Lists.step channel [ 0; 1 ]));
  Alcotest.(check int) "jam suppressions" 2
    (Injector.suppressed_of injector "jam")

let test_loss_certain_and_never () =
  let channel, injector =
    jammed_channel
      ~rng:(Rng.create ~seed:5 ())
      (Plan.parse "loss:0-9:p=1")
  in
  for _ = 0 to 9 do
    Alcotest.(check (list int)) "p=1 drops all" [] (Lists.step channel [ 0 ])
  done;
  Alcotest.(check int) "loss suppressions" 10
    (Injector.suppressed_of injector "loss");
  let channel, injector =
    jammed_channel
      ~rng:(Rng.create ~seed:5 ())
      (Plan.parse "loss:0-9:p=0")
  in
  for _ = 0 to 9 do
    Alcotest.(check (list int)) "p=0 drops none" [ 0 ]
      (Lists.step channel [ 0 ])
  done;
  Alcotest.(check int) "no loss suppressions" 0
    (Injector.suppressed injector)

let test_loss_needs_rng () =
  rejects "loss without rng" (fun () ->
      Injector.create ~m:2 (Plan.parse "loss:0-9:p=0.5"))

let test_degrade_with_measure () =
  (* Complete measure on 2 links: each transmission sees interference 1
     from the other, so gamma=1 kills concurrent pairs but spares solo
     transmissions. *)
  let channel, injector =
    jammed_channel ~measure:(Measure.complete 2)
      (Plan.parse "degrade:0-9:gamma=1")
  in
  Alcotest.(check (list int)) "concurrent pair degraded" []
    (Lists.step channel [ 0; 1 ]);
  Alcotest.(check (list int)) "solo transmission survives" [ 0 ]
    (Lists.step channel [ 0 ]);
  Alcotest.(check int) "degrade suppressions" 2
    (Injector.suppressed_of injector "degrade")

let test_degrade_without_measure_noop () =
  let channel, injector = jammed_channel (Plan.parse "degrade:0-9:gamma=99") in
  Alcotest.(check (list int)) "no measure, no degradation" [ 0; 1 ]
    (List.sort compare (Lists.step channel [ 0; 1 ]));
  Alcotest.(check int) "nothing suppressed" 0 (Injector.suppressed injector)

let test_neighbourhood_target () =
  rejects "neighbourhood without measure" (fun () ->
      Injector.create ~m:2 (Plan.parse "jam:0-9:near=0~0.5"));
  (* Identity measure: the neighbourhood of link 0 is link 0 alone. *)
  let channel, injector =
    jammed_channel ~measure:(Measure.identity 2)
      (Plan.parse "jam:0-9:near=0~0.5")
  in
  Alcotest.(check (list int)) "only the center jammed" [ 1 ]
    (Lists.step channel [ 0; 1 ]);
  Alcotest.(check int) "one suppression" 1 (Injector.suppressed injector)

let test_target_out_of_range () =
  rejects "link id out of range" (fun () ->
      Injector.create ~m:2 (Plan.parse "jam:0-9:links=5"))

(* ----------------------------------------------------- fault telemetry *)

let test_episode_events () =
  let recorder = Memory_sink.create () in
  let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
  let injector =
    Injector.create ~telemetry:t ~frame_length:2 ~m:2
      (Plan.parse "jam:1-2:links=0")
  in
  let channel =
    Channel.create ~faults:(Injector.hook injector) ~oracle:Oracle.Wireline
      ~m:2 ()
  in
  for _ = 0 to 4 do
    ignore (Lists.step channel [ 0 ])
  done;
  Telemetry.emit_metrics t ~frame:2;
  match Memory_sink.events recorder with
  | [ Event.Point { name = "fault.episode.start"; frame = 0; slot = 1; attrs };
      Event.Point
        { name = "fault.episode.end"; frame = 1; slot = 3; attrs = attrs' } ]
    ->
    Alcotest.(check bool) "start attrs" true
      (attrs
      = [ ("kind", Event.Str "jam"); ("links", Event.Int 1);
          ("param", Event.Float 0.); ("last_slot", Event.Int 2) ]);
    Alcotest.(check bool) "end attrs" true
      (attrs'
      = [ ("kind", Event.Str "jam"); ("links", Event.Int 1);
          ("param", Event.Float 0.); ("suppressed", Event.Int 2) ]);
    let rows = List.concat_map snd (Memory_sink.snapshots recorder) in
    Alcotest.(check bool) "fault.suppressed{kind=jam} row" true
      (List.exists
         (fun r ->
           r.Metrics.name = "fault.suppressed"
           && r.Metrics.labels = [ ("kind", "jam") ]
           && r.Metrics.value = 2.)
         rows)
  | events ->
    Alcotest.fail
      (Printf.sprintf "unexpected event stream (%d events)"
         (List.length events))

(* -------------------------------------------------- the overload guard *)

let test_guard_constructor_validates () =
  rejects "low >= high" (fun () -> Protocol.guard ~high:10 ~low:10 ());
  rejects "negative low" (fun () -> Protocol.guard ~high:10 ~low:(-1) ());
  rejects "non-positive high" (fun () -> Protocol.guard ~high:0 ~low:0 ());
  ignore (Protocol.guard ~high:10 ~low:0 ())

(* Wireline line network under a jam episode spanning whole frames:
   failures pile up while the jam lasts, then the (cleanup_prob = 1)
   clean-up drains them quickly once it lifts. *)
let faulted_run ?guard ?(frames = 90) ?(jam_frames = (5, 16)) ?(seed = 23) ()
    =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let m = Graph.link_count g in
  let measure = Measure.identity m in
  let routing = Routing.make g in
  let path src dst = Option.get (Routing.path routing ~src ~dst) in
  let config =
    Protocol.configure ~epsilon:0.5 ~cleanup_prob:1. ~algorithm:Oneshot.algorithm
      ~measure ~lambda:0.3 ~max_hops:4 ()
  in
  let t = config.Protocol.frame in
  let a, b = jam_frames in
  let plan =
    Plan.make
      [ { Plan.kind = Plan.Jam; target = Plan.All;
          first_slot = a * t; last_slot = ((b + 1) * t) - 1 } ]
  in
  let source =
    Driver.Stochastic
      (Stochastic.make [ [ (path 0 4, 0.01) ]; [ (path 4 0, 0.01) ] ])
  in
  let rng = Rng.create ~seed () in
  Driver.run_faulted ?guard ~config ~oracle:Oracle.Wireline ~source ~plan
    ~frames ~rng ()

let last_point series =
  int_of_float (Timeseries.get series (Timeseries.length series - 1))

let test_unguarded_jam_destabilises_then_recovers () =
  let report, injector = faulted_run () in
  Alcotest.(check bool) "jam suppressed transmissions" true
    (Injector.suppressed_of injector "jam" > 0);
  Alcotest.(check bool) "queue spiked" true (report.Protocol.max_queue >= 10);
  Alcotest.(check int) "no guard, nothing shed" 0 report.Protocol.shed;
  (* the spike drains once the jam lifts: verdict is Recovered, and the
     aggregate predicate treats it as stable *)
  let v = Stability.assess report.Protocol.in_system in
  Alcotest.(check string) "verdict" "recovered" (Stability.to_string v);
  Alcotest.(check bool) "recovered is stable" true (Stability.is_stable v)

let test_guard_reject_sheds_and_recovers () =
  let guard =
    Protocol.guard ~policy:Protocol.Reject_admission ~high:8 ~low:2 ()
  in
  let report, _ = faulted_run ~guard () in
  Alcotest.(check bool) "shed some" true (report.Protocol.shed > 0);
  Alcotest.(check bool) "overloaded frames" true
    (report.Protocol.overload_frames > 0);
  (* rejected packets never count as injected *)
  Alcotest.(check int) "conservation (reject)"
    report.Protocol.injected
    (report.Protocol.delivered + last_point report.Protocol.in_system);
  match report.Protocol.recoveries with
  | { Protocol.onset_frame; clear_frame } :: _ ->
    Alcotest.(check bool) "drain takes at least a frame" true
      (clear_frame > onset_frame)
  | [] -> Alcotest.fail "no recovery recorded"

let test_guard_drop_newest_conservation () =
  let guard =
    Protocol.guard ~policy:Protocol.Drop_newest ~high:8 ~low:2 ()
  in
  let report, _ = faulted_run ~guard () in
  Alcotest.(check bool) "shed some" true (report.Protocol.shed > 0);
  (* dropped packets count as injected and as shed *)
  Alcotest.(check int) "conservation (drop-newest)"
    report.Protocol.injected
    (report.Protocol.delivered
    + last_point report.Protocol.in_system
    + report.Protocol.shed)

let test_guard_bounds_queue () =
  (* Same jam, no drain help (cleanup left at 1/m) and a much longer
     episode: unguarded the queue grows with the episode length, guarded
     it stays pinned near the high watermark. *)
  let long = (5, 34) in
  let unguarded, _ = faulted_run ~frames:40 ~jam_frames:long () in
  let guard = Protocol.guard ~high:8 ~low:2 () in
  let guarded, _ = faulted_run ~guard ~frames:40 ~jam_frames:long () in
  Alcotest.(check bool)
    (Printf.sprintf "guarded max %d < unguarded max %d"
       guarded.Protocol.max_queue unguarded.Protocol.max_queue)
    true
    (guarded.Protocol.max_queue < unguarded.Protocol.max_queue)

(* ------------------------------------------------------ reproducibility *)

let series_to_list s =
  List.init (Timeseries.length s) (Timeseries.get s)

let test_faulted_run_reproducible () =
  (* A loss plan so the fault RNG stream is actually exercised. *)
  let run () =
    let g = Topology.line ~nodes:5 ~spacing:1. in
    let measure = Measure.identity (Graph.link_count g) in
    let routing = Routing.make g in
    let path src dst = Option.get (Routing.path routing ~src ~dst) in
    let config =
      Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm ~measure
        ~lambda:0.3 ~max_hops:4 ()
    in
    let source =
      Driver.Stochastic
        (Stochastic.make [ [ (path 0 4, 0.1) ]; [ (path 4 0, 0.1) ] ])
    in
    let recorder = Memory_sink.create () in
    let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let report, _ =
      Driver.run_faulted_traced ~telemetry:t ~metrics_every:5 ~config
        ~oracle:Oracle.Wireline ~source
        ~plan:(Plan.parse "loss:20-200:p=0.4,jam:300-340")
        ~frames:20
        ~rng:(Rng.create ~seed:77 ())
        ()
    in
    Telemetry.close t;
    (report, Memory_sink.event_lines recorder, Memory_sink.snapshots recorder)
  in
  let r1, lines1, snaps1 = run () in
  let r2, lines2, snaps2 = run () in
  Alcotest.(check int) "injected" r1.Protocol.injected r2.Protocol.injected;
  Alcotest.(check int) "delivered" r1.Protocol.delivered r2.Protocol.delivered;
  Alcotest.(check (list (float 0.))) "in_system series"
    (series_to_list r1.Protocol.in_system)
    (series_to_list r2.Protocol.in_system);
  Alcotest.(check (list string)) "identical JSONL events" lines1 lines2;
  Alcotest.(check bool) "identical metric snapshots" true (snaps1 = snaps2)

let test_empty_plan_matches_unfaulted () =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let measure = Measure.identity (Graph.link_count g) in
  let routing = Routing.make g in
  let path src dst = Option.get (Routing.path routing ~src ~dst) in
  let config =
    Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm ~measure
      ~lambda:0.3 ~max_hops:4 ()
  in
  let source () =
    Driver.Stochastic
      (Stochastic.make [ [ (path 0 4, 0.1) ]; [ (path 4 0, 0.1) ] ])
  in
  let plain =
    Driver.run ~config ~oracle:Oracle.Wireline ~source:(source ()) ~frames:25
      ~rng:(Rng.create ~seed:9 ())
  in
  let faulted, injector =
    Driver.run_faulted ~config ~oracle:Oracle.Wireline ~source:(source ())
      ~plan:Plan.empty ~frames:25
      ~rng:(Rng.create ~seed:9 ())
      ()
  in
  Alcotest.(check int) "nothing suppressed" 0 (Injector.suppressed injector);
  Alcotest.(check int) "injected" plain.Protocol.injected
    faulted.Protocol.injected;
  Alcotest.(check int) "delivered" plain.Protocol.delivered
    faulted.Protocol.delivered;
  Alcotest.(check int) "failed_events" plain.Protocol.failed_events
    faulted.Protocol.failed_events;
  Alcotest.(check (list (float 0.))) "in_system series"
    (series_to_list plain.Protocol.in_system)
    (series_to_list faulted.Protocol.in_system)

(* ------------------------------------------------------------------ run *)

let () =
  Alcotest.run "faults"
    [ ( "plan",
        [ Alcotest.test_case "parse kinds" `Quick test_parse_kinds;
          Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
          Alcotest.test_case "parse sorts" `Quick test_parse_plan_sorts;
          Alcotest.test_case "make validates" `Quick test_make_validates;
          Alcotest.test_case "queries" `Quick test_plan_queries;
          Alcotest.test_case "load file" `Quick test_load_file;
          Alcotest.test_case "load reports line" `Quick test_load_reports_line
        ] );
      ( "injector",
        [ Alcotest.test_case "outage interval" `Quick test_outage_interval;
          Alcotest.test_case "jam all links" `Quick test_jam_all_links;
          Alcotest.test_case "loss p=1 / p=0" `Quick
            test_loss_certain_and_never;
          Alcotest.test_case "loss needs rng" `Quick test_loss_needs_rng;
          Alcotest.test_case "degrade with measure" `Quick
            test_degrade_with_measure;
          Alcotest.test_case "degrade without measure" `Quick
            test_degrade_without_measure_noop;
          Alcotest.test_case "neighbourhood target" `Quick
            test_neighbourhood_target;
          Alcotest.test_case "target out of range" `Quick
            test_target_out_of_range ] );
      ( "telemetry",
        [ Alcotest.test_case "episode events" `Quick test_episode_events ] );
      ( "guard",
        [ Alcotest.test_case "constructor validates" `Quick
            test_guard_constructor_validates;
          Alcotest.test_case "unguarded jam recovers" `Quick
            test_unguarded_jam_destabilises_then_recovers;
          Alcotest.test_case "reject sheds and recovers" `Quick
            test_guard_reject_sheds_and_recovers;
          Alcotest.test_case "drop-newest conservation" `Quick
            test_guard_drop_newest_conservation;
          Alcotest.test_case "guard bounds queue" `Quick test_guard_bounds_queue
        ] );
      ( "reproducibility",
        [ Alcotest.test_case "faulted run reproducible" `Quick
            test_faulted_run_reproducible;
          Alcotest.test_case "empty plan = unfaulted" `Quick
            test_empty_plan_matches_unfaulted ] ) ]
