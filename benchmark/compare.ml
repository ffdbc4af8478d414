(* compare.exe A/ B/ — judge runs of a change (B) against runs of its
   parent (A), from the root of the checkout, by the bounds in
   BENCHMARK.json. Each directory holds the runner's output, one or more
   runs per file. Runs pair by seed: the i-th run of a seed in A with the
   i-th run of that seed in B; a run without a partner is reported and
   counts toward its side's quartiles only. A run that is not correct or
   that failed operations is reported. For every workload and end-to-end
   metric it prints each side's median and quartiles and a verdict:

   - improved: B beats A in at least 9 of 10 pairs (ties count for
     neither), the medians differ by more than A's interquartile range,
     and B has no more incorrect runs and no more failed operations than A;
   - unresolved: either side's spread (IQR over median) exceeds the
     metric's bound, unless every B run beats every A run;
   - worse: B's median is worse than A's by more than the bound;
   - unchanged: otherwise.

   Exits 1 when any pairing is worse or B fails more than A on a
   workload. *)

open Util

(* Runs keyed by (seed, occurrence of that seed), in file order. *)
let keyed runs =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (r : Outputs.run) ->
      let i = Option.value ~default:0 (Hashtbl.find_opt seen r.seed) in
      Hashtbl.replace seen r.seed (i + 1);
      ((r.seed, i), r))
    runs

let () =
  let a_dir, b_dir =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (a, b)
    | _ ->
      prerr_endline "usage: compare.exe A/ B/";
      exit 2
  in
  let d = Outputs.declared () in
  let untraced dir =
    List.filter (fun (r : Outputs.run) -> (not r.trace) && not r.smoke) (Outputs.runs_in_dir dir)
  in
  let a_runs = untraced a_dir and b_runs = untraced b_dir in
  let worse = ref 0 and unresolved = ref 0 and b_fails_more = ref 0 in
  Printf.printf "%-17s %-14s %31s %31s %7s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun (w, _) ->
      let side runs = keyed (List.filter (fun (r : Outputs.run) -> r.workload = w) runs) in
      let ra = side a_runs and rb = side b_runs in
      let failures label rs =
        List.fold_left
          (fun (incorrect, failed) ((seed, i), (r : Outputs.run)) ->
            if (not r.correct) || r.failed > 0 then
              Printf.printf "%-17s %s seed %d run %d: correct %b, failed %d\n" w label seed i
                r.correct r.failed;
            ((incorrect + if r.correct then 0 else 1), failed + r.failed))
          (0, 0) rs
      in
      let fa = failures "A" ra and fb = failures "B" rb in
      let fails_more = fst fb > fst fa || snd fb > snd fa in
      if fails_more then begin
        incr b_fails_more;
        Printf.printf "%-17s B fails more than A: %d incorrect runs, %d failed ops against %d, %d\n"
          w (fst fb) (snd fb) (fst fa) (snd fa)
      end;
      let unpaired label rs others =
        List.iter
          (fun ((seed, i), _) ->
            if not (List.mem_assoc (seed, i) others) then
              Printf.printf "%-17s %s seed %d run %d has no partner\n" w label seed i)
          rs
      in
      unpaired "A" ra rb;
      unpaired "B" rb ra;
      let pairs = List.filter_map (fun (k, a) -> Option.map (fun b -> (a, b)) (List.assoc_opt k rb)) ra in
      if List.length ra >= 2 && List.length rb >= 2 then
        List.iter
          (fun (name, _unit, better, bound) ->
            let value (r : Outputs.run) = fst (List.assoc name r.metrics) in
            let values rs = Array.of_list (List.map (fun (_, r) -> value r) rs) in
            let va = values ra and vb = values rb in
            let qa = quartiles va and qb = quartiles vb in
            let ma = qa.(1) and mb = qb.(1) in
            (* [gain x y] > 0 when y is better than x *)
            let gain x y = if better = "higher" then y -. x else x -. y in
            let n = List.length pairs in
            let wins = List.length (List.filter (fun (a, b) -> gain (value a) (value b) > 0.) pairs) in
            let spread q = (q.(2) -. q.(0)) /. Float.abs q.(1) in
            let all_better =
              Array.for_all (fun y -> Array.for_all (fun x -> gain x y > 0.) va) vb
            in
            let verdict =
              if
                n > 0
                && float_of_int wins >= 0.9 *. float_of_int n
                && gain ma mb > qa.(2) -. qa.(0)
                && not fails_more
              then "improved"
              else if Float.max (spread qa) (spread qb) > bound && not all_better then begin
                incr unresolved;
                "unresolved"
              end
              else if -.gain ma mb > bound *. Float.abs ma then begin
                incr worse;
                "worse"
              end
              else "unchanged"
            in
            Printf.printf "%-17s %-14s %11.5g [%8.5g, %8.5g] %11.5g [%8.5g, %8.5g] %+6.1f%% %2d/%-3d  %s\n"
              w name ma qa.(0) qa.(2) mb qb.(0) qb.(2)
              (100. *. (mb -. ma) /. Float.abs ma)
              wins n verdict)
          d.end_to_end
      else Printf.printf "%-17s (fewer than two runs on a side)\n" w)
    d.workloads;
  Printf.printf "%d worse, %d unresolved, %d workloads where B fails more\n" !worse !unresolved
    !b_fails_more;
  if !worse > 0 || !b_fails_more > 0 then exit 1
