module Par = Dps_par.Par
module Intvec = Dps_prelude.Intvec

type t = {
  measure : Measure.t;
  jobs : int;  (* default fan-out for stale rescans *)
  par_threshold : int;  (* rescan sequentially below this many touched rows *)
  load : float array;  (* R *)
  wr : float array;  (* W·R, maintained incrementally *)
  link_touched : bool array;
  touched_links : Intvec.t;  (* in first-touch order *)
  row_touched : bool array;
  touched_rows : Intvec.t;  (* in first-touch order *)
  (* Cached argmax of wr. When an update lowers wr at the cached argmax the
     cache goes stale and the next interference query rescans the touched
     rows (untouched rows are exactly 0). *)
  max_val : float array;
      (* one cell: a float field of this mixed record would box on every
         write *)
  mutable max_row : int;
  mutable stale : bool;
}

let default_par_threshold = 4096

let create ?(jobs = 1) ?(par_threshold = default_par_threshold) measure =
  if jobs < 1 then invalid_arg "Load_tracker.create: jobs must be >= 1";
  let m = Measure.size measure in
  { measure;
    jobs;
    par_threshold;
    load = Array.make m 0.;
    wr = Array.make m 0.;
    link_touched = Array.make m false;
    touched_links = Intvec.create ();
    row_touched = Array.make m false;
    touched_rows = Intvec.create ();
    max_val = [| 0. |];
    max_row = -1;
    stale = false }

let measure t = t.measure
let size t = Array.length t.load

let load t e = t.load.(e)
let load_vector t = Array.copy t.load

(* The update loop reads the measure's kept column view directly — no
   closure per entry, no boxed weight — and pushes onto grown vectors,
   so updates on links whose column was requested before allocate
   nothing. *)
let[@inline] add_scaled t e c =
  if c <> 0. then begin
    if not t.link_touched.(e) then begin
      t.link_touched.(e) <- true;
      Intvec.push t.touched_links e
    end;
    t.load.(e) <- t.load.(e) +. c;
    let { Measure.rows; weights; lo; hi } = Measure.column t.measure e in
    for k = lo to hi - 1 do
      let row = rows.(k) in
      if not t.row_touched.(row) then begin
        t.row_touched.(row) <- true;
        Intvec.push t.touched_rows row
      end;
      let v = t.wr.(row) +. (weights.(k) *. c) in
      t.wr.(row) <- v;
      if row = t.max_row then begin
        if v >= t.max_val.(0) then t.max_val.(0) <- v else t.stale <- true
      end
      else if v > t.max_val.(0) then begin
        t.max_val.(0) <- v;
        t.max_row <- row
      end
    done
  end

let add_count t e n = add_scaled t e (float_of_int n)
let add t e = add_scaled t e 1.
let remove t e = add_scaled t e (-1.)

let interference_at t e = t.wr.(e)

let max_load t =
  let best = ref 0. in
  let links = Intvec.unsafe_data t.touched_links in
  for i = 0 to Intvec.length t.touched_links - 1 do
    let v = t.load.(links.(i)) in
    if v > !best then best := v
  done;
  !best

(* Sequential stale rescan: first occurrence wins on ties (strict >),
   scanning the touched rows newest first. Allocation-free. *)
let rescan_seq t =
  let best = ref 0. and best_row = ref (-1) in
  let rows = Intvec.unsafe_data t.touched_rows in
  for i = Intvec.length t.touched_rows - 1 downto 0 do
    let row = rows.(i) in
    let v = t.wr.(row) in
    if v > !best then begin
      best := v;
      best_row := row
    end
  done;
  t.max_val.(0) <- !best;
  t.max_row <- !best_row;
  t.stale <- false

(* Parallel stale rescan: chunk the touched rows newest first, take each
   chunk's strict-> first-occurrence maximum, fold the per-chunk results
   in chunk order with strict > again. Comparisons only (no float
   arithmetic), and ties resolve to the earliest occurrence exactly as
   the sequential scan does — so value AND argmax are byte-identical to
   [rescan_seq] for any [jobs] or chunking (the Dps_par.Par contract). *)
let rescan_par t ~jobs =
  let n = Intvec.length t.touched_rows in
  let rows = Array.init n (fun i -> Intvec.get t.touched_rows (n - 1 - i)) in
  let nchunks = Int.min jobs ((n + t.par_threshold - 1) / t.par_threshold) in
  let nchunks = Int.max nchunks 1 in
  let chunk_len = (n + nchunks - 1) / nchunks in
  let scan_chunk c =
    let lo = c * chunk_len in
    let hi = Int.min n (lo + chunk_len) - 1 in
    let best = ref 0. and best_row = ref (-1) in
    for i = lo to hi do
      let row = rows.(i) in
      let v = t.wr.(row) in
      if v > !best then begin
        best := v;
        best_row := row
      end
    done;
    (!best, !best_row)
  in
  let per_chunk = Par.map ~jobs scan_chunk (List.init nchunks Fun.id) in
  let best = ref 0. and best_row = ref (-1) in
  List.iter
    (fun (v, row) ->
      if v > !best then begin
        best := v;
        best_row := row
      end)
    per_chunk;
  t.max_val.(0) <- !best;
  t.max_row <- !best_row;
  t.stale <- false

let interference ?jobs t =
  if t.stale then begin
    let jobs = match jobs with Some j -> j | None -> t.jobs in
    if jobs > 1 && Intvec.length t.touched_rows >= t.par_threshold then
      rescan_par t ~jobs
    else rescan_seq t
  end;
  (* Matches [Measure.interference]: never below the empty maximum 0. *)
  Float.max 0. t.max_val.(0)

let reset t =
  let links = Intvec.unsafe_data t.touched_links in
  for i = 0 to Intvec.length t.touched_links - 1 do
    let e = links.(i) in
    t.load.(e) <- 0.;
    t.link_touched.(e) <- false
  done;
  Intvec.clear t.touched_links;
  let rows = Intvec.unsafe_data t.touched_rows in
  for i = 0 to Intvec.length t.touched_rows - 1 do
    let row = rows.(i) in
    t.wr.(row) <- 0.;
    t.row_touched.(row) <- false
  done;
  Intvec.clear t.touched_rows;
  t.max_val.(0) <- 0.;
  t.max_row <- -1;
  t.stale <- false

let of_load ?jobs ?par_threshold measure r =
  if Array.length r <> Measure.size measure then
    invalid_arg "Load_tracker.of_load: load length differs from measure size";
  let t = create ?jobs ?par_threshold measure in
  Array.iteri (fun e c -> add_scaled t e c) r;
  t
