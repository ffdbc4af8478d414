(* Documentation lint, run as part of the tier-1 suite.

   The container has no odoc, so `dune build @doc` cannot be the check;
   instead this test enforces the parts that matter for reviewers:

   - every interface of the libraries whose surface is documented
     behaviour (telemetry, faults, trace, par, serve, the slot loop of
     sim, static, mac and sinr, and the interference / geometry
     substrate including the tiled sparse engine) opens with a module
     doc comment and documents every exported value;
   - the flag tables of docs/CLI.md and docs/SERVING.md agree with
     `dps_run --help` and `dps_serve --help` respectively, in BOTH
     directions — a flag added to a parser without a table row, or a
     documented row whose flag the parser dropped, fails the build;
   - every relative `.md` link inside README.md and docs/*.md resolves
     to a file that exists — no dead intra-doc links.

   The dune stanza materialises the .mli files and the markdown corpus
   as test dependencies; the test runs from _build/default/test/, so
   repo-root paths are `../…`. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Count non-overlapping occurrences of [needle]. *)
let count_occurrences needle haystack =
  let n = String.length needle and l = String.length haystack in
  let rec go i acc =
    if i + n > l then acc
    else if String.sub haystack i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* ------------------------------------------------- interface doc lint *)

let check_mli path =
  let src = read_file path in
  Alcotest.(check bool)
    (path ^ " opens with a module doc comment")
    true
    (String.length src >= 3 && String.sub src 0 3 = "(**");
  let vals = count_occurrences "val " src in
  let docs = count_occurrences "(**" src in
  if docs < vals then
    Alcotest.failf "%s: %d doc comments for %d vals — document every export"
      path vals docs

let check_dir dir names =
  List.iter (fun m -> check_mli (Printf.sprintf "../lib/%s/%s.mli" dir m)) names

let test_telemetry_mlis () =
  check_dir "telemetry"
    [ "event"; "histo"; "metrics"; "sink"; "memory_sink"; "snapshot"; "tracer";
      "telemetry" ]

let test_interference_mlis () =
  check_dir "interference"
    [ "measure"; "load"; "load_tracker"; "conflict_graph"; "tiled" ]

let test_geometry_mlis () = check_dir "geometry" [ "point"; "placement"; "tiling" ]
let test_faults_mlis () = check_dir "faults" [ "plan"; "injector" ]

let test_trace_mlis () =
  check_dir "trace" [ "json"; "line"; "reader"; "lifecycle"; "analyze"; "witness" ]

let test_par_mli () = check_dir "par" [ "par" ]

let test_serve_mlis () =
  check_dir "serve" [ "classes"; "bucket"; "wire"; "scenario"; "engine" ]

let test_sim_mlis () =
  check_dir "sim" [ "channel"; "oracle"; "packet_arena"; "scratch"; "trace" ]

let test_static_mlis () =
  check_dir "static"
    [ "algorithm"; "contention"; "delay_select"; "measure_greedy"; "oneshot";
      "request" ]

let test_mac_mlis () =
  check_dir "mac" [ "decay"; "mac_measure"; "round_robin" ]

let test_sinr_mlis () =
  check_dir "sinr"
    [ "affectance"; "params"; "physics"; "power"; "power_control";
      "sinr_measure" ]

(* -------------------------------------------- CLI.md vs --help drift *)

(* All `--flag` tokens occurring in [s] (longest match, deduplicated). *)
let flags_in s =
  let l = String.length s in
  let is_flag_char c = (c >= 'a' && c <= 'z') || c = '-' in
  let out = ref [] in
  let i = ref 0 in
  while !i + 1 < l do
    if
      s.[!i] = '-'
      && s.[!i + 1] = '-'
      && (!i = 0 || s.[!i - 1] <> '-')
      && !i + 2 < l
      && s.[!i + 2] >= 'a'
      && s.[!i + 2] <= 'z'
    then begin
      let j = ref (!i + 2) in
      while !j < l && is_flag_char s.[!j] do
        incr j
      done;
      out := String.sub s !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !out

let find_sub s sub =
  let n = String.length sub and l = String.length s in
  let rec go i =
    if i + n > l then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* The slice of [doc] between two headers (file start / end when
   omitted) — one markdown file can then carry flag tables for several
   executables (docs/CLI.md: dps_run, dps_trace, dps_top) without the
   drift checks cross-contaminating. *)
let md_section ?from_header ?until_header doc =
  let src = read_file doc in
  let locate h =
    match find_sub src h with
    | Some i -> i
    | None -> Alcotest.failf "%s: section header %S not found" doc h
  in
  let a = match from_header with None -> 0 | Some h -> locate h in
  let b =
    match until_header with None -> String.length src | Some h -> locate h
  in
  if b < a then Alcotest.failf "%s: section headers out of order" doc;
  String.sub src a (b - a)

(* Flags documented in a markdown flag table: rows shaped "| `--flag …".
   Parse the flag the row is ABOUT (at the row start) — descriptions may
   mention other flags. *)
let md_table_flags src =
  let lines = String.split_on_char '\n' src in
  List.filter_map
    (fun line ->
      if String.length line >= 5 && String.sub line 0 5 = "| `--" then begin
        let l = String.length line in
        let is_flag_char c = (c >= 'a' && c <= 'z') || c = '-' in
        let j = ref 5 in
        while !j < l && is_flag_char line.[!j] do
          incr j
        done;
        Some (String.sub line 3 (!j - 3))
      end
      else None)
    lines
  |> List.sort_uniq compare

let help_flags capture =
  List.filter
    (fun f -> f <> "--help" && f <> "--version")
    (flags_in (read_file capture))

(* Both directions, for one (doc, captured --help) pair: a flag added to
   the parser without a table row, or a documented row whose flag the
   parser dropped, fails the build. *)
let check_flag_drift ~doc ~doc_src ~capture ~exe =
  let documented = md_table_flags doc_src in
  List.iter
    (fun f ->
      if not (List.mem f documented) then
        Alcotest.failf "%s is in %s --help but has no row in the %s flag table"
          f exe doc)
    (help_flags capture);
  List.iter
    (fun f ->
      if not (List.mem f (help_flags capture)) then
        Alcotest.failf
          "%s has a %s flag-table row but %s --help does not know it" f doc exe)
    documented

let test_cli_md_drift () =
  let doc = "../docs/CLI.md" in
  check_flag_drift ~doc
    ~doc_src:(md_section ~until_header:"# dps_trace" doc)
    ~capture:"dps_run_help.txt" ~exe:"dps_run"

let test_serving_md_drift () =
  let doc = "../docs/SERVING.md" in
  check_flag_drift ~doc ~doc_src:(read_file doc)
    ~capture:"dps_serve_help.txt" ~exe:"dps_serve"

let test_top_md_drift () =
  let doc = "../docs/CLI.md" in
  check_flag_drift ~doc
    ~doc_src:(md_section ~from_header:"# dps_top" doc)
    ~capture:"dps_top_help.txt" ~exe:"dps_top"

(* ------------------------------------------------- dead-link checker *)

(* Normalize a relative path: resolve "." and ".." segments. *)
let normalize path =
  let segs = String.split_on_char '/' path in
  let out =
    List.fold_left
      (fun acc seg ->
        match (seg, acc) with
        | ("" | "."), _ -> acc
        | "..", x :: rest when x <> ".." -> rest
        | s, _ -> s :: acc)
      [] segs
  in
  String.concat "/" (List.rev out)

(* Markdown links [text](target.md[#anchor]) with a relative target. *)
let md_links src =
  let l = String.length src in
  let out = ref [] in
  for i = 0 to l - 2 do
    if src.[i] = ']' && src.[i + 1] = '(' then
      match String.index_from_opt src (i + 2) ')' with
      | Some j ->
        let target = String.sub src (i + 2) (j - i - 2) in
        let target =
          match String.index_opt target '#' with
          | Some k -> String.sub target 0 k
          | None -> target
        in
        let is_md =
          String.length target > 3
          && String.sub target (String.length target - 3) 3 = ".md"
        in
        let is_remote =
          String.length target > 4
          && (String.sub target 0 4 = "http" || target.[0] = '/')
        in
        if is_md && not is_remote then out := target :: !out
      | None -> ()
  done;
  List.rev !out

let doc_corpus () =
  let root =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.map (fun f -> "../" ^ f)
  in
  let docs =
    Sys.readdir "../docs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.map (fun f -> "../docs/" ^ f)
  in
  root @ docs

let test_no_dead_links () =
  let checked = ref 0 in
  List.iter
    (fun doc ->
      let dir = Filename.dirname doc in
      List.iter
        (fun target ->
          incr checked;
          let resolved = normalize (dir ^ "/" ^ target) in
          if not (Sys.file_exists resolved) then
            Alcotest.failf "%s links to %s, which does not exist (resolved %s)"
              doc target resolved)
        (md_links (read_file doc)))
    (doc_corpus ());
  (* The corpus is wired through dune deps; if the glob breaks we would
     vacuously pass, so insist we actually saw links. *)
  Alcotest.(check bool) "saw at least five intra-doc links" true (!checked >= 5)

let () =
  Alcotest.run "docs"
    [ ( "doc-comments",
        [ Alcotest.test_case "telemetry interfaces" `Quick test_telemetry_mlis;
          Alcotest.test_case "interference interfaces" `Quick
            test_interference_mlis;
          Alcotest.test_case "geometry interfaces" `Quick test_geometry_mlis;
          Alcotest.test_case "faults interfaces" `Quick test_faults_mlis;
          Alcotest.test_case "trace interfaces" `Quick test_trace_mlis;
          Alcotest.test_case "par interface" `Quick test_par_mli;
          Alcotest.test_case "serve interfaces" `Quick test_serve_mlis;
          Alcotest.test_case "sim interfaces" `Quick test_sim_mlis;
          Alcotest.test_case "static interfaces" `Quick test_static_mlis;
          Alcotest.test_case "mac interfaces" `Quick test_mac_mlis;
          Alcotest.test_case "sinr interfaces" `Quick test_sinr_mlis ] );
      ( "cli-drift",
        [ Alcotest.test_case "CLI.md <-> dps_run --help" `Quick
            test_cli_md_drift;
          Alcotest.test_case "SERVING.md <-> dps_serve --help" `Quick
            test_serving_md_drift;
          Alcotest.test_case "CLI.md <-> dps_top --help" `Quick
            test_top_md_drift ] );
      ( "links",
        [ Alcotest.test_case "no dead intra-doc links" `Quick
            test_no_dead_links ] ) ]
