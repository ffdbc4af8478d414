(* Which workloads cross each per-layer metric's layer. Names, units and
   the end-to-end metrics come from BENCHMARK.json. A run reports every
   metric of its pass, and 0 for a layer its workload never enters. *)

type scope = Sim | Serve | Both

let per_layer_scope =
  [ ("network.build_s", Sim);
    ("interference.build_s", Sim);
    ("interference.nnz_per_link", Sim);
    ("interference.bytes_per_link", Sim);
    ("injection.calibrate_s", Sim);
    ("core.configure_s", Sim);
    ("core.frame_p50_us", Both);
    ("core.frame_tail_us", Both);
    ("core.frame_tail_q", Both);
    ("core.frame_samples", Both);
    ("core.self_us", Sim);
    ("core.in_flight_frac", Both);
    ("injection.us", Sim);
    ("injection.packets", Sim);
    ("static.phase1_us", Sim);
    ("static.cleanup_us", Sim);
    ("static.phase1_served_frac", Sim);
    ("static.cleanup_served_frac", Sim);
    ("static.slots_used_frac", Sim);
    ("sim.busy_frac", Sim);
    ("sim.attempts_per_busy_slot", Sim);
    ("sim.success_frac", Sim);
    ("gc.minor_words_per_slot", Both);
    ("gc.major_per_kframe", Both);
    ("serve.ops_per_sec", Serve);
    ("serve.reply_p50_us", Serve);
    ("serve.reply_tail_us", Serve);
    ("serve.reply_samples", Serve);
    ("serve.inject_rtt_p50_us", Serve);
    ("serve.step_rtt_p50_us", Serve);
    ("serve.step_push_rtt_p50_us", Serve);
    ("serve.step_ckpt_rtt_p50_us", Serve);
    ("serve.stats_rtt_p50_us", Serve);
    ("serve.restore_s", Serve);
    ("serve.journal_bytes_per_op", Serve);
    ("serve.restore_ops_per_sec", Serve);
    ("serve.admitted_frac", Serve);
    ("serve.overloaded_frac", Serve);
    ("serve.shed_frac", Serve);
    ("wire.parse_us", Serve);
    ("wire.render_us", Serve);
    ("serve.submit_us", Serve);
    ("serve.step_us", Serve);
    ("serve.ipc_us", Serve);
    ("trace.overhead_frac", Both);
    ("trace.unattributed_frac", Both) ]

(* The metrics of one pass, in declared order, from the values a
   workload measured. A declared metric without a scope, a value the
   pass should have and lacks, or one nothing declares, is a bug in the
   benchmark. *)
let metrics (d : Outputs.declared) ~serve ~trace values =
  let entries =
    if trace then
      List.map
        (fun (n, u) ->
          match List.assoc_opt n per_layer_scope with
          | Some Both -> (n, u, true)
          | Some Sim -> (n, u, not serve)
          | Some Serve -> (n, u, serve)
          | None -> failwith ("catalogue: no scope for " ^ n))
        d.per_layer
    else List.map (fun (n, u, _, _) -> (n, u, true)) d.end_to_end
  in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (n', _, _) -> n = n') entries) then
        failwith ("catalogue: undeclared metric " ^ n))
    values;
  List.map
    (fun (name, unit, applies) ->
      let value =
        if not applies then 0.
        else
          match List.assoc_opt name values with
          | Some v -> v
          | None -> failwith ("catalogue: no value for " ^ name)
      in
      Util.metric name unit value)
    entries
