(* Schema validator for BENCH_P6.json (dps-bench/1, docs/PERFORMANCE.md).

   Run by `dune build @sparse-path-smoke` against both a freshly
   generated smoke benchmark and the tracked repo-root artifact, so the
   committed file and the emitter can never drift from the documented
   schema. Two extra flags pin the SUBSTANCE of the tracked artifact,
   not just its shape:

     --require-sparse-m M   a protocol_slots_per_sec entry whose config
                            carries both "m=M" and "backend=sparse" must
                            exist — i.e. the full-scale sparse protocol
                            run actually completed;
     --min-speedup X        every speedup_measured entry must be >= X.

   Neither flag is passed for the smoke artifact, whose sizes and
   numbers are meaningless by construction. *)

module Json = Dps_trace.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("BENCH_P6 schema violation: " ^ m);
      exit 1)
    fmt

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i =
    if i + n > l then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

let () =
  let path = Sys.argv.(1) in
  let require_sparse_m = ref None in
  let min_speedup = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--require-sparse-m" :: v :: rest ->
      require_sparse_m := Some (int_of_string v);
      parse_args rest
    | "--min-speedup" :: v :: rest ->
      min_speedup := Some (float_of_string v);
      parse_args rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse_args (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = try Json.parse s with Json.Error m -> fail "%s: %s" path m in
  if Json.string_field "schema" j <> "dps-bench/1" then
    fail "schema tag is not dps-bench/1";
  if Json.string_field "bench" j <> "p6" then fail "bench tag is not p6";
  let entries = Json.to_list (Json.field "entries" j) in
  if entries = [] then fail "no entries";
  List.iter
    (fun e ->
      let config = Json.string_field "config" e in
      let metric = Json.string_field "metric" e in
      let value = Json.to_float (Json.field "value" e) in
      let jobs = Json.int_field "jobs" e in
      if config = "" then fail "empty config";
      if metric <> "protocol_slots_per_sec" && metric <> "speedup_measured"
      then fail "unknown metric %S in %s" metric config;
      if not (value > 0.) then fail "non-positive value in %s/%s" config metric;
      if jobs < 1 then fail "jobs < 1 in %s" config;
      (match !min_speedup with
      | Some x when metric = "speedup_measured" && value < x ->
        fail "speedup_measured %.2f < required %.2f in %s" value x config
      | _ -> ()))
    entries;
  (* Every cell must report the sparse backend sequentially. *)
  if
    not
      (List.exists
         (fun e ->
           Json.string_field "metric" e = "protocol_slots_per_sec"
           && contains ~sub:"backend=sparse" (Json.string_field "config" e)
           && Json.int_field "jobs" e = 1)
         entries)
  then fail "no sequential sparse protocol_slots_per_sec entry";
  (match !require_sparse_m with
  | None -> ()
  | Some m ->
    let tag = Printf.sprintf "m=%d/" m in
    if
      not
        (List.exists
           (fun e ->
             let config = Json.string_field "config" e in
             Json.string_field "metric" e = "protocol_slots_per_sec"
             && contains ~sub:tag config
             && contains ~sub:"backend=sparse" config)
           entries)
    then fail "no sparse protocol run at m=%d" m);
  Printf.printf "%s: %d entries valid\n" path (List.length entries)
