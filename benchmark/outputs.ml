(* Reading BENCHMARK.json, the one declaration of the workloads and the
   metrics' names, units, directions and bounds, and the runner's output
   back. Every executable here runs from the root of the checkout. *)

module Json = Dps_trace.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

type declared = {
  workloads : (string * string) list;  (* name, why *)
  end_to_end : (string * string * string * float) list;  (* name, unit, better, bound *)
  per_layer : (string * string) list;  (* name, unit *)
}

let declared () =
  let j = Json.parse (read_file "BENCHMARK.json") in
  let list k = Json.to_list (Json.field k j) in
  let str k o = Json.string_field k o in
  { workloads = List.map (fun o -> (str "name" o, str "why" o)) (list "workloads");
    end_to_end =
      List.map
        (fun o -> (str "name" o, str "unit" o, str "better" o, Json.to_float (Json.field "bound" o)))
        (list "end_to_end");
    per_layer = List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer") }

(* One run: the meta line the runner prints first and its result line. *)
type run = {
  workload : string;
  seed : int;
  trace : bool;
  smoke : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;  (* name -> value, unit *)
}

let runs_of_text text =
  let parse l = match Json.parse l with j -> Some j | exception Json.Error _ -> None in
  let meta = ref None and acc = ref [] in
  List.iter
    (fun line ->
      match parse line with
      | Some (Json.Obj _ as j) when Json.member "bench" j <> None -> meta := Some j
      | Some (Json.Obj _ as j) when Json.member "metrics" j <> None -> (
        match !meta with
        | None -> ()
        | Some m ->
          let metrics =
            match Json.field "metrics" j with
            | Json.Obj kvs ->
              List.map
                (fun (k, v) ->
                  (k, (Json.to_float (Json.field "value" v), Json.string_field "unit" v)))
                kvs
            | _ -> raise (Json.Error "metrics is not an object")
          in
          acc :=
            { workload = Json.string_field "workload" m;
              seed = Json.int_field "seed" m;
              trace = Json.to_bool (Json.field "trace" m);
              smoke = Json.to_bool (Json.field "smoke" m);
              correct = Json.to_bool (Json.field "correct" j);
              attempted = Json.int_field "attempted" j;
              failed = Json.int_field "failed" j;
              metrics }
            :: !acc;
          meta := None)
      | _ -> ())
    (String.split_on_char '\n' text);
  List.rev !acc

(* Every run recorded in the regular files of [dir]. *)
let runs_in_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then [] else runs_of_text (read_file p))
