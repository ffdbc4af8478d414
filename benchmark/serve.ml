(* The serving workload: one closed-loop client drives a spawned
   dps_serve over its stdin/stdout pipes in the R2 shape — a mac channel
   with 6 stations, URLLC/eMBB/mMTC tenants each offering twice their
   quota, a churn tenant, a class guard and three jam episodes — with the
   write-ahead journal on and a metrics subscription. The same request
   stream is then replayed in process through Wire.parse, Engine.* and
   Wire.ok, and a second daemon runs its first [fixed_frames] frames and
   is killed and restored from its journal. *)

open Util
module Rng = Dps_prelude.Rng
module Engine = Dps_serve.Engine
module Scenario = Dps_serve.Scenario
module Classes = Dps_serve.Classes
module Wire = Dps_serve.Wire

let stations = 6
let rate = 0.1
let class_guard = "6:2,20:6,120:40"
let checkpoint_every = 16
let push_every = 8
let stats_every = 10
let churn_period = 64

(* Counts, peak RSS and the restore are read after this many frames, so
   they depend on the seed alone, not on how many frames the host ran
   in [--seconds]. It is about 1 s of the untraced loop. *)
let fixed_frames = 8192

(* tenant, class, bucket rate, burst, copies offered per frame (twice
   the rate) *)
let tenants =
  [ ("ctrl", "urllc", 1, 8, 2); ("web", "embb", 3, 12, 6); ("iot", "mmtc", 8, 24, 16) ]

let scenario () = Scenario.make ~model:"mac" ~topology:"mac" ~stations ~rate ()

(* The station of each tenant of [tenants], then churn's: the tenants
   never share a station, as the simulation workloads keep one fixed
   instance. *)
let links = [| 0; 2; 4; 1 |]

type plan = {
  seed : int;
  frame : int;  (* T, slots per frame *)
  faults : string;  (* three two-frame jam episodes, in slots *)
}

(* Everything the client sends is a function of the seed and the frame
   index, so a run is replayed from its frame count alone. The seed
   drives the daemon's randomness and where the jams fall; they fall
   early, so every run, however short, crosses all three. *)
let plan ~seed ~smoke =
  let rng = Rng.create ~seed () in
  let t = (Scenario.build (scenario ())).Scenario.config.Dps_core.Protocol.frame in
  let spacing = if smoke then 10 else 200 in
  let faults =
    String.concat ","
      (List.init 3 (fun i ->
           let a = ((i + 1) * spacing) + Rng.int rng (spacing / 2) in
           Printf.sprintf "jam:%d-%d" (a * t) (((a + 2) * t) - 1)))
  in
  { seed; frame = t; faults }

let status_request = {|{"do":"status"}|}

let prelude =
  Printf.sprintf {|{"do":"subscribe","every":%d}|} push_every
  :: List.map
       (fun (name, klass, r, b, _) ->
         Printf.sprintf {|{"do":"attach","tenant":"%s","class":"%s","rate":%d,"burst":%d}|}
           name klass r b)
       tenants

let inject name link copies =
  Printf.sprintf {|{"do":"inject","tenant":"%s","path":[%d],"copies":%d}|} name link copies

let is_inject line = String.starts_with ~prefix:{|{"do":"inject"|} line
let is_step line = String.starts_with ~prefix:{|{"do":"step"|} line

(* The requests of frame [k], in order. *)
let frame_requests k =
  let churn =
    if k mod churn_period <> 0 then []
    else
      (if k > 0 then [ {|{"do":"detach","tenant":"churn"}|} ] else [])
      @ [ {|{"do":"attach","tenant":"churn","class":"mmtc","rate":4,"burst":8}|};
          inject "churn" links.(List.length tenants) 2 ]
  in
  churn
  @ List.mapi (fun i (name, _, _, _, copies) -> inject name links.(i) copies) tenants
  @ [ {|{"do":"step","frames":1}|} ]
  @ if k mod stats_every = stats_every - 1 then [ {|{"do":"stats"}|} ] else []

(* The whole stream of a run of [frames] frames: the readiness probe,
   the prelude, the frames, and the status read before the kill. *)
let stream ~frames =
  (status_request :: prelude)
  @ List.concat (List.init frames frame_requests)
  @ [ status_request ]

(* --- the daemon --- *)

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

let live : int list ref = ref []

(* Every daemon this process started is killed and reaped on exit,
   whatever path the exit takes. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn exe args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  live := pid :: !live;
  { pid; to_d = Unix.out_channel_of_descr in_w; from_d = Unix.in_channel_of_descr out_r }

let reap d =
  close_out_noerr d.to_d;
  close_in_noerr d.from_d;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Send one request; return its reply ([None] when the stream closed
   first) and how many pushed metrics lines preceded it. Pushes carry
   ["type":"metrics"]; replies always start [{"ok":]. *)
let request d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d;
  let rec read pushes =
    match input_line d.from_d with
    | l when String.starts_with ~prefix:{|{"ok":|} l -> (Some l, pushes)
    | _ -> read (pushes + 1)
    | exception End_of_file -> (None, pushes)
  in
  read 0

let quit d =
  ignore (request d {|{"do":"quit"}|});
  reap d

(* A daemon's arguments, with its journal in [dir] when given. *)
let daemon_args ?dir p =
  [ "--model"; "mac"; "--topology"; "mac"; "--stations"; string_of_int stations;
    "--rate"; string_of_float rate; "--seed"; string_of_int p.seed;
    "--class-guard"; class_guard; "--fault"; p.faults ]
  @ match dir with
    | Some d -> [ "--checkpoint"; d; "--checkpoint-every"; string_of_int checkpoint_every ]
    | None -> []

(* Spawn a daemon and time it until the reply to its first request. *)
let start exe args =
  let t0 = now_ns () in
  let d = spawn exe args in
  let reply, _ = request d status_request in
  (d, reply, secs (now_ns () - t0))

(* --- the closed loop --- *)

let verbs = [| "inject"; "step"; "step_push"; "step_ckpt"; "stats"; "control" |]
let v_inject = 0
let v_step = 1
let v_step_push = 2
let v_step_ckpt = 3
let v_stats = 4
let v_control = 5

(* Step replies split three ways: crossing a checkpoint (which also
   pushes), carrying a push, or plain. *)
let verb line ~frame_after ~pushes =
  if is_inject line then v_inject
  else if is_step line then
    if frame_after mod checkpoint_every = 0 then v_step_ckpt
    else if pushes > 0 then v_step_push
    else v_step
  else if line = {|{"do":"stats"}|} then v_stats
  else v_control

(* One client session on one daemon: what it sent and what came back. *)
type client = {
  d : daemon;
  traced : bool;
  replies : Buffer.t;  (* every reply in order, pushes excluded *)
  cycle_ns : Buf.t;  (* per frame: all of that frame's requests *)
  rtt : Buf.t array;  (* per verb, traced only *)
  all_rtt : Buf.t;  (* traced only *)
  spans : Spans.t;  (* traced only *)
  mutable requests : int;
  mutable missing : int;
  mutable not_ok : int;
  mutable last : string;  (* the latest reply *)
  mutable rss_mb : float;  (* the daemon's peak RSS after [fixed_frames] *)
}

let record c = function
  | None -> c.missing <- c.missing + 1
  | Some r ->
    Buffer.add_string c.replies r;
    Buffer.add_char c.replies '\n';
    c.last <- r;
    if not (String.starts_with ~prefix:{|{"ok":true|} r) then c.not_ok <- c.not_ok + 1

let client d ~first_reply ~traced =
  let c =
    { d;
      traced;
      replies = Buffer.create (1 lsl 20);
      cycle_ns = Buf.create ();
      rtt = Array.map (fun _ -> Buf.create ()) verbs;
      all_rtt = Buf.create ();
      spans = Spans.create verbs;
      requests = 1;
      missing = 0;
      not_ok = 0;
      last = "";
      rss_mb = 0. }
  in
  record c first_reply;
  c

let send c ~frame_after line =
  let t0 = if c.traced then now_ns () else 0 in
  let reply, pushes = request c.d line in
  if c.traced then begin
    let dt = now_ns () - t0 in
    let v = verb line ~frame_after ~pushes in
    Buf.add c.rtt.(v) dt;
    Buf.add c.all_rtt dt;
    Spans.charge c.spans v dt
  end;
  c.requests <- c.requests + 1;
  record c reply

(* Send the prelude, then drive the clients frame by frame, in turn
   within each frame so that a traced and an untraced client see the
   same host, until [seconds] have passed and at least [fixed] frames
   have run, or [max_frames] have run; end with a status read. Each
   client's frame cycle is timed; a traced client also times each
   request, charged to its verb, and keeps each cycle as a span. Each
   daemon's peak RSS is read after frame [fixed]: the daemon keeps a few
   words per frame, so a peak read at the end would follow the host's
   speed. Returns the frames run, and the start and wall time of the
   loop. *)
let run_loop clients ~seconds ~max_frames ~fixed =
  List.iter
    (fun c ->
      List.iter (send c ~frame_after:0) prelude;
      Spans.clear_open c.spans)
    clients;
  let start = now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let last = ref start in
  let k = ref 0 in
  while !k < max_frames && (!last < deadline || !k < fixed) do
    let lines = frame_requests !k in
    List.iter
      (fun c ->
        let t0 = now_ns () in
        List.iter (send c ~frame_after:(!k + 1)) lines;
        let t1 = now_ns () in
        Buf.add c.cycle_ns (t1 - t0);
        if c.traced then Spans.frame c.spans ~start:t0 ~stop:t1;
        last := t1)
      clients;
    incr k;
    if !k = fixed then List.iter (fun c -> c.rss_mb <- peak_rss_mb ~pid:c.d.pid ()) clients
  done;
  let wall = now_ns () - start in
  List.iter (fun c -> send c ~frame_after:!k status_request) clients;
  (!k, start, wall)

(* --- the in-process replay: dps_serve's dispatch, layer by layer --- *)

let render_outcome = function
  | Engine.Admitted { first_id; copies } ->
    [ ("outcome", Wire.Str "admitted"); ("id", Wire.Int first_id); ("copies", Wire.Int copies) ]
  | Engine.Shed { klass } ->
    [ ("outcome", Wire.Str "shed"); ("class", Wire.Str (Classes.to_string klass)) ]
  | Engine.Overloaded { retry_after } ->
    [ ("outcome", Wire.Str "overloaded"); ("retry_after_frames", Wire.Int retry_after) ]
  | Engine.Too_large { burst } ->
    [ ("outcome", Wire.Str "too-large"); ("burst", Wire.Float burst) ]

(* One parsed command through the engine: the reply's verb and fields,
   or the error a reply would carry. *)
let execute e ~push = function
  | Wire.Inject { tenant; links; delay; copies } ->
    Result.map (fun o -> ("inject", render_outcome o)) (Engine.submit e ~tenant ~links ~delay ~copies)
  | Wire.Step { frames } ->
    Engine.step e ~frames;
    Ok ("step", [ ("frame", Wire.Int (Engine.frame e)); ("in_flight", Wire.Int (Engine.in_flight e)) ])
  | Wire.Status -> Ok ("status", Engine.status_fields e)
  | Wire.Stats -> Ok ("stats", Engine.stats_fields e)
  | Wire.Subscribe { every } ->
    Result.map (fun () -> ("subscribe", [ ("every", Wire.Int every) ])) (Engine.subscribe e ~every ~push)
  | Wire.Unsubscribe ->
    let was = Engine.unsubscribe e in
    Ok ("unsubscribe", [ ("was_subscribed", Wire.Bool was) ])
  | Wire.Checkpoint ->
    Engine.checkpoint e;
    Ok ("checkpoint", [ ("frame", Wire.Int (Engine.frame e)) ])
  | Wire.Attach { tenant; klass; rate; burst } ->
    Result.map
      (fun () -> ("attach", [ ("tenant", Wire.Str tenant); ("class", Wire.Str (Classes.to_string klass)) ]))
      (Engine.attach e ~tenant ~klass ?rate ?burst ())
  | Wire.Detach { tenant } ->
    Result.map (fun () -> ("detach", [ ("tenant", Wire.Str tenant) ])) (Engine.detach e ~tenant)
  | Wire.Quit -> Ok ("quit", [ ("frame", Wire.Int (Engine.frame e)) ])

type replay = {
  out : Buffer.t;
  n : int;
  parse_ns : int;
  render_ns : int;
  submit : Buf.t;  (* engine time of each inject *)
  step : Buf.t;  (* engine time of each step *)
  total_ns : int;  (* parse + engine + render, all requests *)
  minor_words : float;
  major_collections : int;
}

let replay p lines =
  let e =
    Engine.create
      (Engine.default_config ~guard:class_guard ~faults:p.faults ~checkpoint_every
         ~scenario:(scenario ()) ~seed:p.seed ())
  in
  let out = Buffer.create (1 lsl 20) in
  let submit = Buf.create () and step = Buf.create () in
  let parse_ns = ref 0 and render_ns = ref 0 and total_ns = ref 0 and n = ref 0 in
  let push _ = () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let minor0 = Gc.minor_words () in
  List.iter
    (fun line ->
      let t0 = now_ns () in
      let parsed = Wire.parse line in
      let t1 = now_ns () in
      let answer = Result.bind parsed (execute e ~push) in
      let t2 = now_ns () in
      let reply =
        match answer with
        | Ok (cmd, fields) -> Wire.ok ~cmd fields
        | Error err -> Wire.error ~err []
      in
      let t3 = now_ns () in
      Buffer.add_string out reply;
      Buffer.add_char out '\n';
      parse_ns := !parse_ns + (t1 - t0);
      render_ns := !render_ns + (t3 - t2);
      total_ns := !total_ns + (t3 - t0);
      incr n;
      if is_inject line then Buf.add submit (t2 - t1)
      else if is_step line then Buf.add step (t2 - t1))
    lines;
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  Engine.close e;
  { out;
    n = !n;
    parse_ns = !parse_ns;
    render_ns = !render_ns;
    submit;
    step;
    total_ns = !total_ns;
    minor_words;
    major_collections }

(* --- the workload --- *)

let field_int name reply =
  match Dps_trace.Json.(member name (parse reply)) with
  | Some v -> Dps_trace.Json.to_int v
  | None -> 0

let mean_us b = if Buf.length b = 0 then 0. else usecs (Buf.sum b) /. float_of_int (Buf.length b)
let p50_us b = median (Buf.to_floats b) *. 1e-3

(* Inject outcomes among a client's replies: outcome -> replies. *)
let outcome_counts c =
  let t = Hashtbl.create 4 in
  List.iter
    (fun l ->
      if l <> "" then
        match Dps_trace.Json.(member "outcome" (parse l)) with
        | Some (Dps_trace.Json.Str o) ->
          Hashtbl.replace t o (1 + Option.value ~default:0 (Hashtbl.find_opt t o))
        | _ -> ())
    (String.split_on_char '\n' (Buffer.contents c.replies));
  t

(* Kill a daemon, then restore it from its journal and time it from the
   kill to its first reply. *)
let kill_and_restore exe d ~dir ~pre_status =
  let journal = Filename.concat dir "journal.jsonl" in
  let t0 = now_ns () in
  Unix.kill d.pid Sys.sigkill;
  reap d;
  let journal_bytes = (Unix.stat journal).Unix.st_size in
  let journal_ops = List.length (read_lines journal) in
  let d2 = spawn exe [ "--checkpoint"; dir; "--restore" ] in
  let reply, _ = request d2 status_request in
  let restore_s = secs (now_ns () - t0) in
  check (reply = Some pre_status) "serve: status after --restore differs from before the kill";
  quit d2;
  (restore_s, journal_bytes, journal_ops)

let check_client name c ~expected =
  check (c.missing = 0) "serve %s: %d replies missing" name c.missing;
  check (c.not_ok = 0) "serve %s: %d replies with ok:false" name c.not_ok;
  check (c.requests = expected) "serve %s: %d requests sent, the stream has %d" name c.requests
    expected

(* Injected, delivered and in flight from a status reply, which must
   conserve packets. *)
let packet_counts name status =
  let injected = field_int "injected" status in
  let delivered = field_int "delivered" status in
  let in_flight = field_int "in_flight" status in
  check (injected = delivered + in_flight) "serve %s: injected %d <> delivered %d + in_flight %d"
    name injected delivered in_flight;
  (injected, delivered, in_flight)

external pin_last_cpu : unit -> int = "dps_bench_pin_last_cpu"

let run ~exe ~run_dir ~seed ~seconds ~smoke ~trace ~setup_samples =
  (* The client and every daemon it spawns share one CPU, so a round
     trip is a switch between two processes on that CPU. Across two
     vCPUs, each round trip woke an idle vCPU: a frame cost 40% more,
     and its rate drifted with the host's load by up to a third. *)
  let cpu = pin_last_cpu () in
  let p = plan ~seed ~smoke in
  let max_frames = if smoke then 50 else max_int in
  let fixed = Int.min fixed_frames max_frames in
  let dirs = ref [] in
  let launch ~traced =
    let dir =
      Filename.concat run_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) (List.length !dirs))
    in
    dirs := dir :: !dirs;
    rm_rf dir;
    mkdir_p dir;
    let d, first_reply, _ = start exe (daemon_args ~dir p) in
    (client d ~first_reply ~traced, dir)
  in
  (* Set-up is timed on daemons without a journal: the journal header's
     fsync added about 0.5 ms of disk time to a 1.4 ms start. *)
  let setups =
    List.init setup_samples (fun _ ->
        let d, _, setup = start exe (daemon_args p) in
        quit d;
        setup)
  in
  let plain, dir = launch ~traced:false in
  let traced = if trace then Some (fst (launch ~traced:true)) else None in
  let clients = plain :: Option.to_list traced in
  let frames, span_start, wall_ns = run_loop clients ~seconds ~max_frames ~fixed in
  Printf.printf "serve: %d frames, %d requests per client in %.2f s (journal on %s, CPU %d)\n%!"
    frames plain.requests (secs wall_ns) (fs_type dir) cpu;
  List.iter (fun c -> quit c.d) clients;
  let lines = stream ~frames in
  let expected = List.length lines in
  check_client "untraced" plain ~expected;
  ignore (packet_counts "untraced" plain.last);
  Option.iter
    (fun t ->
      check_client "traced" t ~expected;
      check
        (Buffer.contents t.replies = Buffer.contents plain.replies)
        "serve: traced and untraced reply streams differ")
    traced;
  (* A daemon run for exactly [fixed] frames, then killed and restored:
     its counts and its journal are the same for a seed on any host. *)
  let f, fdir = launch ~traced:false in
  ignore (run_loop [ f ] ~seconds:0. ~max_frames:fixed ~fixed);
  check_client "fixed-length" f ~expected:(List.length (stream ~frames:fixed));
  let restore_s, journal_bytes, journal_ops =
    kill_and_restore exe f.d ~dir:fdir ~pre_status:f.last
  in
  List.iter rm_rf !dirs;
  let injected, delivered, in_flight = packet_counts "fixed-length" f.last in
  let r = replay p lines in
  check
    (Buffer.contents r.out = Buffer.contents plain.replies)
    "serve: in-process replay reply stream differs from the daemon's";
  let attempted = List.fold_left (fun a c -> a + c.requests) 0 (f :: clients) in
  let failed = List.fold_left (fun a c -> a + c.missing + c.not_ok) 0 (f :: clients) in
  let cycle = Buf.to_floats plain.cycle_ns in
  let values =
    match traced with
    | None ->
      let slots_per_sec = float_of_int p.frame *. peak_rate plain.cycle_ns ~window_ns in
      [ ("slots_per_sec", slots_per_sec);
        (* Every path is one link, so each delivery is one hop. *)
        ("hops_per_sec", slots_per_sec *. float_of_int delivered /. float_of_int (fixed * p.frame));
        ("frame_p10_us", quantile cycle 0.1 *. 1e-3);
        ("setup_s", median (Array.of_list setups));
        ("peak_rss_mb", plain.rss_mb) ]
    | Some t ->
      let outcomes = outcome_counts f in
      let injects = Hashtbl.fold (fun _ c acc -> acc + c) outcomes 0 in
      let frac o =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt outcomes o)) /. float_of_int injects
      in
      let tcycle = Buf.to_floats t.cycle_ns in
      let q, tail_v = tail tcycle in
      let all = Buf.to_floats t.all_rtt in
      let _, rtail = tail all in
      let covered = Spans.covered t.spans + Buf.sum plain.cycle_ns in
      Spans.write t.spans
        ~path:(Filename.concat run_dir (Printf.sprintf "spans-serve-mac-%d.jsonl" seed))
        ~workload:"serve-mac" ~frame_name:"client.frame_cycle" ~root_start:span_start
        ~root_stop:(span_start + wall_ns);
      [ ("core.frame_p50_us", median tcycle *. 1e-3);
        ("core.frame_tail_us", tail_v *. 1e-3);
        ("core.frame_tail_q", q);
        ("core.frame_samples", float_of_int frames);
        ("core.in_flight_frac", float_of_int in_flight /. float_of_int injected);
        ("gc.minor_words_per_slot", r.minor_words /. float_of_int (frames * p.frame));
        ("gc.major_per_kframe", 1000. *. float_of_int r.major_collections /. float_of_int frames);
        ("serve.ops_per_sec",
         (* the frames' requests: the stream less the prelude and the
            two status reads *)
         float_of_int (expected - List.length prelude - 2)
         /. secs (Buf.sum plain.cycle_ns));
        ("serve.reply_p50_us", median all *. 1e-3);
        ("serve.reply_tail_us", rtail *. 1e-3);
        ("serve.reply_samples", float_of_int (Array.length all));
        ("serve.inject_rtt_p50_us", p50_us t.rtt.(v_inject));
        ("serve.step_rtt_p50_us", p50_us t.rtt.(v_step));
        ("serve.step_push_rtt_p50_us", p50_us t.rtt.(v_step_push));
        ("serve.step_ckpt_rtt_p50_us", p50_us t.rtt.(v_step_ckpt));
        ("serve.stats_rtt_p50_us", p50_us t.rtt.(v_stats));
        ("serve.restore_s", restore_s);
        ("serve.journal_bytes_per_op", float_of_int journal_bytes /. float_of_int journal_ops);
        ("serve.restore_ops_per_sec", float_of_int journal_ops /. restore_s);
        ("serve.admitted_frac", frac "admitted");
        ("serve.overloaded_frac", frac "overloaded");
        ("serve.shed_frac", frac "shed");
        ("wire.parse_us", usecs r.parse_ns /. float_of_int r.n);
        ("wire.render_us", usecs r.render_ns /. float_of_int r.n);
        ("serve.submit_us", mean_us r.submit);
        ("serve.step_us", mean_us r.step);
        ("serve.ipc_us", mean_us t.all_rtt -. (usecs r.total_ns /. float_of_int r.n));
        ("trace.overhead_frac", (median tcycle /. median cycle) -. 1.);
        ("trace.unattributed_frac", float_of_int (wall_ns - covered) /. float_of_int wall_ns) ]
  in
  (attempted, failed, values)
