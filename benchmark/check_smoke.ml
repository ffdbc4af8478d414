(* check_smoke.exe < output — holds a smoke run of every workload to
   BENCHMARK.json: both passes ran, each was correct, and each reported
   every metric of its pass as a finite number. Exits 1 with one line
   per problem. *)

let () =
  let d = Outputs.declared () in
  let runs = Outputs.runs_of_text (In_channel.input_all stdin) in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun trace ->
          let pass = if trace then "traced" else "untraced" in
          match List.filter (fun (r : Outputs.run) -> r.workload = w && r.trace = trace) runs with
          | [] -> fail "%s: no %s run" w pass
          | r :: _ ->
            if not r.correct then fail "%s %s: correct is false" w pass;
            if r.attempted < 1 || r.failed <> 0 then
              fail "%s %s: attempted %d, failed %d" w pass r.attempted r.failed;
            let expected =
              if trace then List.map fst d.per_layer
              else List.map (fun (n, _, _, _) -> n) d.end_to_end
            in
            List.iter
              (fun name ->
                match List.assoc_opt name r.metrics with
                | None -> fail "%s %s: %s missing" w pass name
                | Some (v, _) -> if not (Float.is_finite v) then fail "%s %s: %s = %g" w pass name v)
              expected)
        [ false; true ])
    d.workloads;
  match List.rev !problems with
  | [] -> Printf.printf "benchmark smoke: %d runs match BENCHMARK.json\n" (List.length runs)
  | ps ->
    List.iter prerr_endline ps;
    exit 1
