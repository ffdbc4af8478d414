(* In-memory spans for the traced pass: one span per frame (or per
   frame cycle of the serving client), with the time of each child layer
   accumulated inside it, all parented to one root span for the run.
   Nothing is formatted while the run is timed; [write] renders JSONL
   once it has ended. Format: README.md, "Span format". *)

type t = {
  layers : string array;
  cur : int array;  (* child nanoseconds charged to the open frame *)
  mutable start : int array;
  mutable stop : int array;
  mutable child : int array;  (* frame-major, [Array.length layers] per frame *)
  mutable n : int;
}

let create layers =
  let k = Array.length layers in
  { layers;
    cur = Array.make k 0;
    start = Array.make 1024 0;
    stop = Array.make 1024 0;
    child = Array.make (1024 * k) 0;
    n = 0 }

let grow a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

let clear_open t = Array.fill t.cur 0 (Array.length t.cur) 0

let charge t layer ns = t.cur.(layer) <- t.cur.(layer) + ns

(* Close the open frame as the span [start, stop]. *)
let frame t ~start ~stop =
  let k = Array.length t.layers in
  t.start <- grow t.start t.n;
  t.stop <- grow t.stop t.n;
  t.child <- grow t.child ((t.n + 1) * k);
  t.start.(t.n) <- start;
  t.stop.(t.n) <- stop;
  for l = 0 to k - 1 do
    t.child.((t.n * k) + l) <- t.cur.(l);
    t.cur.(l) <- 0
  done;
  t.n <- t.n + 1

let frames t = t.n
let duration t i = t.stop.(i) - t.start.(i)

(* Total child time of [layer] over all frames. *)
let layer_total t layer =
  let k = Array.length t.layers in
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.child.((i * k) + layer)
  done;
  !s

let covered t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + duration t i
  done;
  !s

let write t ~path ~workload ~frame_name ~root_start ~root_stop =
  let k = Array.length t.layers in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"span\":0,\"parent\":null,\"name\":\"run\",\"workload\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
    workload root_start root_stop;
  for i = 0 to t.n - 1 do
    let children = ref 0 in
    let fields =
      List.init k (fun l ->
          let ns = t.child.((i * k) + l) in
          children := !children + ns;
          Printf.sprintf "%S:%d" t.layers.(l) ns)
    in
    Printf.fprintf oc
      "{\"span\":%d,\"parent\":0,\"name\":%S,\"frame\":%d,\"start_ns\":%d,\"end_ns\":%d,\"children\":{%s},\"self_ns\":%d}\n"
      (i + 1) frame_name i t.start.(i) t.stop.(i) (String.concat "," fields)
      (duration t i - !children)
  done;
  close_out oc
