(* Clock, statistics, host facts and the result line shared by every
   workload. *)

(* Nanoseconds on the monotonic clock. The external is unboxed and
   noalloc, so a timer costs no minor words and the traced pass
   measures allocation exactly like the untraced one. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns *. 1e-9
let usecs ns = float_of_int ns *. 1e-3

(* A growable int buffer for per-frame and per-request samples (in ns):
   adding to it never allocates on the minor heap. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then b.a <- Array.append b.a (Array.make b.n 0);
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let length b = b.n
  let to_floats b = Array.init b.n (fun i -> float_of_int b.a.(i))
  let sum b =
    let s = ref 0 in
    for i = 0 to b.n - 1 do
      s := !s + b.a.(i)
    done;
    !s
end

(* [quantile xs q] — linear interpolation between closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

(* Quartiles by the "exclusive" method, the default of Python's
   statistics.quantiles(xs, n=4); needs at least two values. *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld < 2 then invalid_arg "quartiles: fewer than two values";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.)

(* The highest of a few tail quantiles that still has at least ten
   samples beyond it, so a tail is never read off a handful of points:
   [(q, value)], or [(0.5, median)] when there are fewer than 100. *)
let tail xs =
  let n = float_of_int (Array.length xs) in
  match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.98; 0.95; 0.9 ] with
  | Some q -> (q, quantile xs q)
  | None -> (0.5, median xs)

(* The fastest rate, in frames per second, over consecutive windows of
   whole frames that each span at least [window_ns] (the whole run when
   it is shorter than one window). Noise on a shared host only ever
   slows a window down, so the fastest one follows the code rather than
   the neighbours: over twelve runs on a noisy host its spread was
   0.45-0.7 of that of the mean rate. *)
let peak_rate (b : Buf.t) ~window_ns =
  let best = ref 0. and n = ref 0 and t = ref 0 in
  for i = 0 to b.n - 1 do
    incr n;
    t := !t + b.a.(i);
    if !t >= window_ns then begin
      best := Float.max !best (float_of_int !n /. secs !t);
      n := 0;
      t := 0
    end
  done;
  if !best > 0. then !best else float_of_int b.n /. secs (Buf.sum b)

let window_ns = 250_000_000

(* --- host facts --- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []

(* Peak resident set (VmHWM) of a process, in MiB; [pid = None] is this
   process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> acc)
    0. (read_lines path)

(* Filesystem type holding [dir]: the longest mount point that prefixes
   its absolute path in /proc/mounts. *)
let fs_type dir =
  let abs =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  let best = ref ("", "unknown") in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: mnt :: ty :: _ ->
        let prefix =
          mnt = "/"
          || String.length abs >= String.length mnt
             && String.sub abs 0 (String.length mnt) = mnt
             && (String.length abs = String.length mnt
                || abs.[String.length mnt] = '/')
        in
        if prefix && String.length mnt >= String.length (fst !best) then
          best := (mnt, ty)
      | _ -> ())
    (read_lines "/proc/mounts");
  snd !best

let nproc () = Domain.recommended_domain_count ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* --- metrics and the result line --- *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* JSON numbers with every digit the float has (%.17g round-trips);
   non-finite values have no JSON form and fail the run instead. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "non-finite metric value %h" x)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* The last line of a run: its machine-readable result. *)
let result_line ~correct ~attempted ~failed metrics =
  json_obj
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun m ->
               ( m.name,
                 json_obj
                   [ ("value", json_float m.value); ("unit", json_string m.unit) ] ))
             metrics) ) ]

(* A correctness check: a failure is collected, printed, and turns the
   run's [correct] false (and its exit code non-zero). *)
let failures : string list ref = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        failures := msg :: !failures;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt
