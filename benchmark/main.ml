(* The repository benchmark. One invocation runs one workload, or every
   workload in a child process of its own, and prints each run's metrics
   as a JSON object on its last line. Usage: README.md. *)

open Util

type kind = Simulation of Sim.spec | Serving

let workloads =
  List.map (fun (s : Sim.spec) -> (s.Sim.name, Simulation s)) Sim.specs
  @ [ ("serve-mac", Serving) ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable list : bool;
  mutable setup_probe : bool;
  mutable serve_exe : string;
  mutable run_dir : string;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--smoke] [--list] [--serve-exe PATH] [--run-dir DIR]";
  exit 2

let parse_args () =
  let o =
    { workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      smoke = false;
      list = false;
      setup_probe = false;
      serve_exe = "_build/default/bin/dps_serve.exe";
      run_dir = ".bench_run" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: n :: rest -> o.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest -> o.seconds <- float_of_string s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> o.trace <- t = "1"; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--list" :: rest -> o.list <- true; go rest
    | "--setup-probe" :: rest -> o.setup_probe <- true; go rest
    | "--serve-exe" :: p :: rest -> o.serve_exe <- p; go rest
    | "--run-dir" :: d :: rest -> o.run_dir <- d; go rest
    | a :: _ -> prerr_endline ("main.exe: bad argument " ^ a); usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> prerr_endline "main.exe: bad number"; usage ());
  (match o.workload with
  | Some w when not (List.mem_assoc w workloads) ->
    prerr_endline ("main.exe: unknown workload " ^ w);
    usage ()
  | _ -> ());
  o

let common_args o =
  [ "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
    "--serve-exe"; o.serve_exe; "--run-dir"; o.run_dir ]
  @ if o.smoke then [ "--smoke" ] else []

(* Set-up time of a fresh process: the workload's set-up in a child,
   so the measured process's peak memory holds one set-up only. *)
let probe o name () =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      (Array.of_list ((exe :: common_args o) @ [ "--setup-probe"; "--workload"; name ]))
  in
  let lines = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Scanf.sscanf (String.trim lines) "setup_s %f" Fun.id
  | _ -> failwith ("set-up probe failed for " ^ name)

(* Set-up samples per run, by workload weight: the reported set-up time
   is their median. A daemon starts in about 1.4 ms, with a spread of a
   fifth to a quarter of that between runs, so it takes the most. *)
let setup_samples o name =
  if o.trace then 1
  else if o.smoke then 2
  else match name with "serve-mac" -> 31 | "wireline-oneshot" -> 7 | _ -> 3

let run_one o name =
  let kind = List.assoc name workloads in
  let declared = Outputs.declared () in
  mkdir_p o.run_dir;
  print_endline
    (json_obj
       [ ("bench", json_string "dps");
         ("workload", json_string name);
         ("seed", string_of_int o.seed);
         ("seconds", json_float o.seconds);
         ("trace", string_of_bool o.trace);
         ("smoke", string_of_bool o.smoke);
         ("nproc", string_of_int (nproc ()));
         ("jobs", "1");
         ("ocaml", json_string Sys.ocaml_version);
         ("journal_fs", json_string (fs_type o.run_dir)) ]);
  let attempted, failed, values =
    match kind with
    | Simulation spec ->
      Sim.run spec ~seed:o.seed ~seconds:o.seconds ~smoke:o.smoke ~trace:o.trace
        ~probe:(probe o name) ~setup_samples:(setup_samples o name) ~run_dir:o.run_dir
    | Serving ->
      Serve.run ~exe:o.serve_exe ~run_dir:o.run_dir ~seed:o.seed ~seconds:o.seconds
        ~smoke:o.smoke ~trace:o.trace ~setup_samples:(setup_samples o name)
  in
  let metrics = Catalogue.metrics declared ~serve:(kind = Serving) ~trace:o.trace values in
  List.iter (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit) metrics;
  let correct = !failures = [] && failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* Every workload (both passes under --smoke), each in its own child
   process; fails if any child does. *)
let run_all o =
  let exe = Sys.executable_name in
  let passes = if o.smoke then [ false; true ] else [ o.trace ] in
  let failed =
    List.concat_map
      (fun trace ->
        List.filter_map
          (fun (name, _) ->
            let args =
              (exe :: common_args o)
              @ [ "--workload"; name; "--trace"; (if trace then "1" else "0") ]
            in
            flush stdout;
            let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> None
            | _ -> Some name)
          workloads)
      passes
  in
  if failed <> [] then begin
    Printf.eprintf "main.exe: failed: %s\n" (String.concat ", " failed);
    exit 1
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args () in
  if o.list then
    List.iter (fun (n, why) -> Printf.printf "%-18s %s\n" n why) (Outputs.declared ()).workloads
  else
    match o.workload with
    | None -> run_all o
    | Some name when o.setup_probe -> (
      match List.assoc name workloads with
      | Simulation spec -> Printf.printf "setup_s %.9f\n" (spec.Sim.build ~smoke:o.smoke).Sim.setup_s
      | Serving -> usage ())
    | Some name -> run_one o name
