(* dps_serve — crash-safe multi-tenant scheduling daemon.

   Commands arrive as JSONL (one request per line) on stdin or a Unix
   domain socket; every request gets exactly one JSON reply line.
   Logical time advances only through {"do":"step"} commands, so the
   daemon is fully deterministic: a fixed request stream yields a
   byte-fixed reply stream, and the write-ahead journal replays to the
   same state after a crash (kill -9 included).

   Examples:
     dps_serve --model wireline --topology line:6 --rate 0.3 \
       --tenant acme:urllc --checkpoint /tmp/ck
     dps_serve --checkpoint /tmp/ck --restore
     dps_serve --model mac --rate 0.15 --socket /tmp/dps.sock

   Wire protocol, checkpoint format and failure modes: docs/SERVING.md.
*)

module Sink = Dps_telemetry.Sink
module Scenario = Dps_serve.Scenario
module Classes = Dps_serve.Classes
module Wire = Dps_serve.Wire
module Engine = Dps_serve.Engine

exception Shutdown_signal

let install_signal_handlers () =
  let raise_shutdown _ = raise Shutdown_signal in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle raise_shutdown);
  Sys.set_signal Sys.sigint (Sys.Signal_handle raise_shutdown)

(* NAME:CLASS[:RATE[:BURST]] *)
let parse_tenant s =
  let num what v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> failwith ("--tenant: " ^ what ^ " must be a number")
  in
  let klass name =
    match Classes.of_string name with
    | Ok k -> k
    | Error msg -> failwith ("--tenant: " ^ msg)
  in
  match String.split_on_char ':' s with
  | [ name; k ] -> (name, klass k, None, None)
  | [ name; k; rate ] -> (name, klass k, Some (num "RATE" rate), None)
  | [ name; k; rate; burst ] ->
    (name, klass k, Some (num "RATE" rate), Some (num "BURST" burst))
  | _ -> failwith "--tenant must be NAME:CLASS[:RATE[:BURST]]"

(* Merge --fault flags and the --fault-plan file into one comma-joined
   spec string: that is what the checkpoint header stores, so a restore
   rebuilds the identical plan without re-reading the file. *)
let merge_fault_specs ~fault_specs ~fault_plan =
  let from_file =
    match fault_plan with
    | None -> []
    | Some file ->
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let specs = ref [] in
          (try
             while true do
               let line = String.trim (input_line ic) in
               if line <> "" && line.[0] <> '#' then specs := line :: !specs
             done
           with End_of_file -> ());
          List.rev !specs)
  in
  match fault_specs @ from_file with
  | [] -> None
  | specs -> Some (String.concat "," specs)

let make_sinks ~trace ~metrics =
  let opened = ref [] in
  let open_sink path mk =
    if path = "-" then
      failwith "dps_serve: sinks cannot claim stdout (it carries replies)"
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
  (sinks, fun () -> List.iter close_out !opened)

let render_outcome = function
  | Engine.Admitted { first_id; copies } ->
    [ ("outcome", Wire.Str "admitted");
      ("id", Wire.Int first_id);
      ("copies", Wire.Int copies) ]
  | Engine.Shed { klass } ->
    [ ("outcome", Wire.Str "shed");
      ("class", Wire.Str (Classes.to_string klass)) ]
  | Engine.Overloaded { retry_after } ->
    [ ("outcome", Wire.Str "overloaded");
      ("retry_after_frames", Wire.Int retry_after) ]
  | Engine.Too_large { burst } ->
    [ ("outcome", Wire.Str "too-large"); ("burst", Wire.Float burst) ]

(* One request line -> one reply line. Every failure becomes a
   diagnostic reply; nothing a client sends can take the daemon down.
   [push] writes one extra line on the reply stream — the metrics
   subscription target, bound to the current client. Pushes happen
   inside Engine.step, so subscribed metrics lines appear *before* the
   step reply that produced them: a deterministic interleaving. *)
let handle engine ~stop ~push line =
  match Wire.parse line with
  | Error msg -> Wire.error ~err:msg []
  | Ok cmd -> (
    match cmd with
    | Wire.Inject { tenant; links; delay; copies } -> (
      match Engine.submit engine ~tenant ~links ~delay ~copies with
      | Error msg -> Wire.error ~err:msg []
      | Ok outcome -> Wire.ok ~cmd:"inject" (render_outcome outcome))
    | Wire.Step { frames } ->
      Engine.step engine ~frames;
      Wire.ok ~cmd:"step"
        [ ("frame", Wire.Int (Engine.frame engine));
          ("in_flight", Wire.Int (Engine.in_flight engine)) ]
    | Wire.Status -> Wire.ok ~cmd:"status" (Engine.status_fields engine)
    | Wire.Stats -> Wire.ok ~cmd:"stats" (Engine.stats_fields engine)
    | Wire.Subscribe { every } -> (
      match Engine.subscribe engine ~every ~push with
      | Error msg -> Wire.error ~err:msg []
      | Ok () -> Wire.ok ~cmd:"subscribe" [ ("every", Wire.Int every) ])
    | Wire.Unsubscribe ->
      let was = Engine.unsubscribe engine in
      Wire.ok ~cmd:"unsubscribe" [ ("was_subscribed", Wire.Bool was) ]
    | Wire.Checkpoint ->
      Engine.checkpoint engine;
      Wire.ok ~cmd:"checkpoint" [ ("frame", Wire.Int (Engine.frame engine)) ]
    | Wire.Attach { tenant; klass; rate; burst } -> (
      match Engine.attach engine ~tenant ~klass ?rate ?burst () with
      | Error msg -> Wire.error ~err:msg []
      | Ok () ->
        Wire.ok ~cmd:"attach"
          [ ("tenant", Wire.Str tenant);
            ("class", Wire.Str (Classes.to_string klass)) ])
    | Wire.Detach { tenant } -> (
      match Engine.detach engine ~tenant with
      | Error msg -> Wire.error ~err:msg []
      | Ok () -> Wire.ok ~cmd:"detach" [ ("tenant", Wire.Str tenant) ])
    | Wire.Quit ->
      stop := true;
      Wire.ok ~cmd:"quit" [ ("frame", Wire.Int (Engine.frame engine)) ])

(* One client session. EOF ends the session only; [stop] (the quit
   command) ends the daemon — so in socket mode a monitor can attach,
   look, and detach without taking the service down, while in
   stdin/stdout mode the caller exits after the single session anyway. *)
let serve_channel engine ic oc ~stop =
  let push line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let connected = ref true in
  while !connected && not !stop do
    match input_line ic with
    | exception End_of_file -> connected := false
    | line ->
      if String.trim line <> "" then begin
        output_string oc (handle engine ~stop ~push line);
        output_char oc '\n';
        flush oc
      end
  done

let serve_socket engine path ~stop =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Printf.eprintf "dps_serve: listening on %s\n%!" path;
      while not !stop do
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        (* One client at a time: replies are totally ordered, which the
           determinism story depends on. *)
        (try serve_channel engine ic oc ~stop
         with Sys_error _ | End_of_file -> ());
        (* The subscription is bound to this client's channel; drop it
           before the fd can be recycled for the next connection. *)
        ignore (Engine.unsubscribe engine);
        (try flush oc with Sys_error _ -> ());
        try Unix.close conn with Unix.Unix_error _ -> ()
      done)

let run model topology algorithm rate epsilon stations loss sparse tile seed
    tenants class_guard fault_specs fault_plan socket checkpoint restore
    checkpoint_every trace metrics metrics_every jobs =
  if restore && checkpoint = None then
    failwith "--restore needs --checkpoint DIR";
  if jobs < 1 then failwith "--jobs must be >= 1";
  (* An execution knob, never state: results, journals and checkpoints
     are byte-identical for every jobs value, so clamping to what the
     machine runs well is invisible (docs/PARALLELISM.md). *)
  let jobs = Int.min jobs (Dps_par.Par.recommended_jobs ()) in
  let sinks, close_sinks = make_sinks ~trace ~metrics in
  let faults = merge_fault_specs ~fault_specs ~fault_plan in
  let engine =
    if restore then begin
      let dir = Option.get checkpoint in
      match Engine.restore ~sinks ~jobs ~dir () with
      | Error msg -> failwith ("restore: " ^ msg)
      | Ok (engine, r) ->
        Printf.eprintf
          "dps_serve: restored frame=%d ops=%d%s\n%!"
          r.Engine.replayed_frames r.Engine.replayed_ops
          (if r.Engine.dropped_tail then " (dropped torn journal tail)"
           else "");
        engine
    end
    else begin
      let scenario =
        Scenario.make ?algorithm ~epsilon ~stations ~loss ?sparse ?tile
          ~model ~topology ~rate ()
      in
      let cfg =
        Engine.default_config ?guard:class_guard ?faults ~checkpoint_every
          ~metrics_every ~scenario ~seed ()
      in
      let engine = Engine.create ~sinks ?checkpoint_dir:checkpoint ~jobs cfg in
      List.iter
        (fun spec ->
          let tenant, klass, rate, burst = parse_tenant spec in
          match Engine.attach engine ~tenant ~klass ?rate ?burst () with
          | Ok () -> ()
          | Error msg -> failwith ("--tenant: " ^ msg))
        tenants;
      engine
    end
  in
  install_signal_handlers ();
  let stop = ref false in
  let finish () =
    (* Graceful exit — also the signal path: final metrics snapshot,
       checkpoint, journal close, sink flush, then close the files. *)
    Engine.close engine;
    close_sinks ()
  in
  match
    match socket with
    | Some path -> serve_socket engine path ~stop
    | None -> serve_channel engine stdin stdout ~stop
  with
  | () -> finish ()
  | exception Shutdown_signal ->
    Printf.eprintf "dps_serve: signal received, checkpointing\n%!";
    finish ()
  | exception e ->
    finish ();
    raise e

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
        ~doc:"Static algorithm (as in dps_run). Default: model-appropriate.")

let rate =
  Arg.(
    value & opt float 0.04
    & info [ "rate" ] ~docv:"LAMBDA" ~doc:"Injection rate λ = ||W·F||_inf.")

let epsilon =
  Arg.(
    value & opt float 0.5
    & info [ "epsilon" ] ~docv:"EPS" ~doc:"Protocol headroom ε in (0, 1].")

let stations =
  Arg.(
    value & opt int 8
    & info [ "stations" ] ~docv:"N" ~doc:"Stations for the mac model.")

let loss =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Per-transmission loss probability (unreliable networks).")

let sparse =
  Arg.(
    value
    & opt (some float) None
    & info [ "sparse" ] ~docv:"EPS"
        ~doc:
          "Build the interference matrix through the ε-sparsified tiled \
           engine (sinr-linear only). See docs/SCALING.md.")

let tile =
  Arg.(
    value
    & opt (some float) None
    & info [ "tile" ] ~docv:"CELL" ~doc:"Tile side for $(b,--sparse).")

let seed =
  Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let tenants =
  Arg.(
    value & opt_all string []
    & info [ "tenant" ] ~docv:"NAME:CLASS[:RATE[:BURST]]"
        ~doc:
          "Attach a tenant at boot: a name, a service class (urllc, embb, \
           mmtc) and an optional token-bucket quota (tokens per frame and \
           burst cap; class defaults otherwise). Repeatable. Ignored with \
           $(b,--restore) — restored tenants come from the journal.")

let class_guard =
  Arg.(
    value
    & opt (some string) None
    & info [ "class-guard" ] ~docv:"H:L[,H:L[,H:L]]"
        ~doc:
          "Class-aware overload shedding: hysteresis watermarks on the \
           failed-buffer potential, one HIGH:LOW pair per shed priority \
           starting with mmtc (shed first). Watermarks must be nested \
           (non-decreasing), which guarantees a higher class is never shed \
           while a lower one is admitted. See docs/SERVING.md §3.")

let fault =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a fault episode (same grammar as dps_run; see \
           docs/FAULTS.md). Repeatable.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Load fault episodes from $(docv): one spec per line, $(b,#) \
           comments. Merged with any $(b,--fault) flags.")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix domain socket at $(docv) (one client at a time) \
           instead of stdin/stdout.")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Write the crash-safe checkpoint (versioned header + write-ahead \
           journal) under $(docv). Without it the daemon runs in-memory \
           only.")

let restore =
  Arg.(
    value & flag
    & info [ "restore" ]
        ~doc:
          "Rebuild state from the $(b,--checkpoint) directory by replaying \
           the journal, then resume serving (and journaling) from there.")

let checkpoint_every =
  Arg.(
    value & opt int 16
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "fsync the journal and rewrite the header every $(docv) frames \
           (0 = only on explicit checkpoint commands and shutdown).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL telemetry trace to $(docv) (not $(b,-): stdout \
           carries replies). Schema: docs/OBSERVABILITY.md.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write metric snapshots as CSV to $(docv).")

let metrics_every =
  Arg.(
    value & opt int 0
    & info [ "metrics-every" ] ~docv:"N"
        ~doc:
          "Emit a metrics snapshot every $(docv) frames (0 = final snapshot \
           only).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Parallelism on $(docv) domains (clamped to the machine's \
           recommended domain count): the $(b,--sparse) measure is built \
           tile by tile, and a stale interference rescan that finds 4096 \
           or more touched rows splits them across domains. An execution \
           knob, not state: replies, journals and checkpoints are \
           byte-identical for every $(docv). Rejected when $(docv) < 1.")

let run_safely model topology algorithm rate epsilon stations loss sparse tile
    seed tenants class_guard fault_specs fault_plan socket checkpoint restore
    checkpoint_every trace metrics metrics_every jobs =
  try
    run model topology algorithm rate epsilon stations loss sparse tile seed
      tenants class_guard fault_specs fault_plan socket checkpoint restore
      checkpoint_every trace metrics metrics_every jobs
  with Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "dps_serve: %s\n" msg;
    exit 1

let cmd =
  let doc = "crash-safe multi-tenant scheduling daemon (JSONL over stdin or \
             a Unix socket)" in
  let man =
    [ `S Manpage.s_examples;
      `P "Serve a wireline path with one URLLC tenant, checkpointing:";
      `Pre
        "  dps_serve --model wireline --topology line:6 --rate 0.3 \\\\\n\
        \    --tenant acme:urllc --checkpoint /tmp/ck";
      `P "Crash recovery — replay the journal and continue:";
      `Pre "  dps_serve --checkpoint /tmp/ck --restore";
      `P "Class-aware shedding under overload (mmtc shed first):";
      `Pre
        "  dps_serve --model mac --rate 0.15 --tenant iot:mmtc --tenant \
         web:embb \\\\\n\
        \    --tenant ctrl:urllc --class-guard 40:10,80:20,160:40";
      `P "A request stream, one JSON object per line:";
      `Pre
        "  {\"do\":\"inject\",\"tenant\":\"acme\",\"path\":[0,1,2]}\n\
        \  {\"do\":\"step\",\"frames\":4}\n\
        \  {\"do\":\"status\"}\n\
        \  {\"do\":\"quit\"}";
      `S Manpage.s_see_also;
      `P
        "docs/SERVING.md (wire protocol, checkpoint format, tenant \
         configuration, failure modes); docs/CLI.md; docs/FAULTS.md." ]
  in
  Cmd.v
    (Cmd.info "dps_serve" ~doc ~man)
    Term.(
      const run_safely $ model $ topology $ algorithm $ rate $ epsilon
      $ stations $ loss $ sparse $ tile $ seed $ tenants $ class_guard $ fault
      $ fault_plan $ socket $ checkpoint $ restore $ checkpoint_every $ trace
      $ metrics $ metrics_every $ jobs)

let () = exit (Cmd.eval cmd)
