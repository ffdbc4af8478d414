(* Schema validator for the tracked bench artifacts (dps-bench/1):
   BENCH_P5.json and BENCH_P6.json (docs/PERFORMANCE.md) and
   BENCH_S1.json (docs/SCALING.md). The artifact's "bench" tag picks the
   rules.

   Usage: check_bench_json FILE [--require-m M] [--require-sparse-m M]
                                [--min-speedup X]

   Run by `dune build @perf-smoke`, `@sparse-path-smoke` and
   `@scale-smoke` against both a freshly generated smoke benchmark and
   the tracked repo-root artifact, so the committed files and the
   emitters can never drift from the documented schema. The flags pin
   the SUBSTANCE of a tracked artifact, not just its shape, and are not
   passed for smoke artifacts, whose sizes and numbers are meaningless
   by construction:

     --require-m M         (s1) some config was measured at exactly M
                           links; repeat it to require several sizes;
     --require-sparse-m M  (p6) a protocol_slots_per_sec entry whose
                           config carries both "m=M/" and
                           "backend=sparse" exists — the full-scale
                           sparse protocol run completed;
     --min-speedup X       (p6) every speedup_measured entry is >= X. *)

module Json = Dps_trace.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench artifact schema violation: " ^ m);
      exit 1)
    fmt

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i =
    if i + n > l then false else String.sub s i n = sub || go (i + 1)
  in
  go 0

let config e = Json.string_field "config" e
let metric e = Json.string_field "metric" e
let jobs e = Json.int_field "jobs" e

(* S1 configs look like "link-cloud/eps=0.1/m=4096" or
   "conflict-d2/side=50/m=9800": recover the size. *)
let m_of_config config =
  match String.rindex_opt config '=' with
  | None -> None
  | Some i ->
    int_of_string_opt (String.sub config (i + 1) (String.length config - i - 1))

(* An s1 arm's metrics: the core ones each of its configs carries at
   jobs=1, and the ones it may add (the conflict-graph arm's vm_hwm_mib
   is Linux-only). *)
let s1_arm config =
  if String.starts_with ~prefix:"conflict-d2/" config then
    ( [ "graph_build_s"; "order_build_s"; "measure_build_s"; "nnz_per_link" ],
      [ "vm_hwm_mib" ] )
  else
    ( [ "construct_links_per_sec"; "nnz_per_link"; "bytes_per_link";
        "max_row_bound"; "step_ops_per_sec"; "query_links_per_sec" ],
      [ "dense_construct_links_per_sec"; "dense_speedup_measured";
        "dense_speedup_projected" ] )

(* The metrics a config of each bench may emit. *)
let metrics = function
  | "p5" -> fun _ -> [ "slots_per_sec"; "packet_hops_per_sec" ]
  | "p6" -> fun _ -> [ "protocol_slots_per_sec"; "speedup_measured" ]
  | "s1" ->
    fun config ->
      let core, extra = s1_arm config in
      core @ extra
  | bench -> fail "unknown bench tag %S" bench

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let path, flags =
    match args with
    | path :: flags -> (path, flags)
    | [] ->
      prerr_endline
        "usage: check_bench_json FILE [--require-m M] [--require-sparse-m M] \
         [--min-speedup X]";
      exit 2
  in
  let require_m = ref []
  and require_sparse_m = ref None
  and min_speedup = ref None in
  let number parse flag v =
    match parse v with
    | Some x -> x
    | None -> fail "%s wants a number, got %S" flag v
  in
  let rec parse_flags = function
    | [] -> ()
    | "--require-m" :: v :: rest ->
      require_m := number int_of_string_opt "--require-m" v :: !require_m;
      parse_flags rest
    | "--require-sparse-m" :: v :: rest ->
      require_sparse_m := Some (number int_of_string_opt "--require-sparse-m" v);
      parse_flags rest
    | "--min-speedup" :: v :: rest ->
      min_speedup := Some (number float_of_string_opt "--min-speedup" v);
      parse_flags rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse_flags flags;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = try Json.parse s with Json.Error m -> fail "%s: %s" path m in
  if Json.string_field "schema" j <> "dps-bench/1" then
    fail "schema tag is not dps-bench/1";
  let bench = Json.string_field "bench" j in
  let allowed = metrics bench in
  let only_for b flag set =
    if set && bench <> b then fail "%s applies to bench %s, not %s" flag b bench
  in
  only_for "s1" "--require-m" (!require_m <> []);
  only_for "p6" "--require-sparse-m" (!require_sparse_m <> None);
  only_for "p6" "--min-speedup" (!min_speedup <> None);
  let entries = Json.to_list (Json.field "entries" j) in
  if entries = [] then fail "no entries";
  List.iter
    (fun e ->
      let config = config e and metric = metric e in
      let value = Json.to_float (Json.field "value" e) in
      if config = "" then fail "empty config";
      if not (List.mem metric (allowed config)) then
        fail "unknown metric %S in %s" metric config;
      if bench = "s1" && m_of_config config = None then
        fail "config %S does not end in m=<links>" config;
      (* max_row_bound may legitimately be 0 (window covers the whole
         instance); every throughput/size metric must be positive. *)
      if metric = "max_row_bound" then begin
        if not (value >= 0.) then fail "negative max_row_bound in %s" config
      end
      else if not (value > 0.) then
        fail "non-positive value in %s/%s" config metric;
      if jobs e < 1 then fail "jobs < 1 in %s" config;
      match !min_speedup with
      | Some x when metric = "speedup_measured" && value < x ->
        fail "speedup_measured %.2f < required %.2f in %s" value x config
      | _ -> ())
    entries;
  let count pred = List.length (List.filter pred entries) in
  let configs = List.sort_uniq compare (List.map config entries) in
  (match bench with
  | "p5" ->
    if
      count (fun e -> metric e = "slots_per_sec")
      <> count (fun e -> metric e = "packet_hops_per_sec")
    then fail "every config/jobs cell must carry both metrics"
  | "p6" ->
    let sparse e =
      metric e = "protocol_slots_per_sec"
      && contains ~sub:"backend=sparse" (config e)
    in
    if count (fun e -> sparse e && jobs e = 1) = 0 then
      fail "no sequential sparse protocol_slots_per_sec entry";
    Option.iter
      (fun m ->
        let tag = Printf.sprintf "m=%d/" m in
        if count (fun e -> sparse e && contains ~sub:tag (config e)) = 0 then
          fail "no sparse protocol run at m=%d" m)
      !require_sparse_m
  | _ ->
    (* s1: every config needs its arm's core metrics at jobs=1. *)
    List.iter
      (fun c ->
        List.iter
          (fun m ->
            if count (fun e -> config e = c && metric e = m && jobs e = 1) = 0
            then fail "config %s lacks %s at jobs=1" c m)
          (fst (s1_arm c)))
      configs;
    List.iter
      (fun m ->
        if not (List.exists (fun c -> m_of_config c = Some m) configs) then
          fail "no config measured at m=%d (got: %s)" m
            (String.concat ", " configs))
      !require_m);
  Printf.printf "%s: %s, %d entries over %d configs valid\n" path bench
    (List.length entries) (List.length configs)
