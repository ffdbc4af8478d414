(* Two backends behind one measure type.

   Dense: CSR-packed sparse matrix — rows are contiguous slices of flat
   arrays. Row e spans [row_ptr.(e), row_ptr.(e+1)) in col_idx/weights,
   with col_idx sorted ascending inside each row and the diagonal always
   present. The transposed (CSC) index is built lazily on first column
   access — it is only needed by incremental consumers (Load_tracker).

   Columns are handed out as [column] views: for dense, a slice of the
   transpose, made once per column and kept next to it; for an external
   backend, whatever its [column] closure returns (the tiled engine
   builds a column on its first request and keeps it, one store per
   engine). Either way a repeated request returns the same view without
   allocating, so every Load_tracker over one measure shares its columns
   and reads the arrays directly.

   Ext:a closure record delegating every operation to an external
   backend (Tiled.as_measure wraps the ε-sparsified slab engine this
   way). The ext arm exists so the whole protocol stack — trackers,
   static algorithms, adversaries, calibration — runs on the sparse
   engine without densifying; the backend contract mirrors the dense
   semantics exactly, column iteration in ascending link-id order
   included, so an exact (ε = 0) ext measure is byte-identical to its
   dense counterpart under every consumer. The only addition is the
   recorded [error_bound]: dense measures are exact (0), ext measures
   may underestimate any (W·R)(e) by at most row_error(e)·‖R‖∞. *)

type column = { rows : int array; weights : float array; lo : int; hi : int }

type transpose = {
  col_ptr : int array;  (* length m+1 *)
  row_idx : int array;  (* length nnz; sorted ascending inside a column *)
  col_weights : float array;
  views : column array;  (* per-column view, [unfetched] until requested *)
}

(* Placeholder for a view not made yet (every real column holds at least
   the diagonal). *)
let unfetched = { rows = [||]; weights = [||]; lo = 0; hi = 0 }

type dense = {
  m : int;
  row_ptr : int array;  (* length m+1 *)
  col_idx : int array;  (* length nnz *)
  weights : float array;  (* length nnz *)
  mutable transposed : transpose option;
}

type ext = {
  e_m : int;
  e_nnz : unit -> int;
  e_row_nnz : int -> int;
  e_iter_row : int -> (int -> float -> unit) -> unit;
  e_weight : int -> int -> float;
  e_column : int -> column;
  e_interference_at : float array -> int -> float;
  e_interference : float array -> float;
  e_max_row_sum : unit -> float;
  e_error_bound : float;
  e_row_error : int -> float;
}

type t = Dense of dense | Ext of ext

let size = function Dense d -> d.m | Ext e -> e.e_m

let nnz = function Dense d -> d.row_ptr.(d.m) | Ext e -> e.e_nnz ()

let is_dense = function Dense _ -> true | Ext _ -> false

let error_bound = function Dense _ -> 0. | Ext e -> e.e_error_bound

let row_error t e' =
  match t with Dense _ -> 0. | Ext e -> e.e_row_error e'

let of_ext ~m ~nnz ~row_nnz ~iter_row ~weight ~column ~interference_at
    ~interference ~max_row_sum ~error_bound ~row_error () =
  if m <= 0 then invalid_arg "Measure.of_ext: m must be > 0";
  if not (error_bound >= 0.) then
    invalid_arg "Measure.of_ext: error_bound must be >= 0";
  Ext
    { e_m = m;
      e_nnz = nnz;
      e_row_nnz = row_nnz;
      e_iter_row = iter_row;
      e_weight = weight;
      e_column = column;
      e_interference_at = interference_at;
      e_interference = interference;
      e_max_row_sum = max_row_sum;
      e_error_bound = error_bound;
      e_row_error = row_error }

(* Pack validated sorted rows ((e', w) pairs) into CSR. *)
let pack m rows =
  let nnz = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  let row_ptr = Array.make (m + 1) 0 in
  let col_idx = Array.make (Int.max nnz 1) 0 in
  let weights = Array.make (Int.max nnz 1) 0. in
  let k = ref 0 in
  Array.iteri
    (fun e r ->
      row_ptr.(e) <- !k;
      Array.iter
        (fun (e', w) ->
          col_idx.(!k) <- e';
          weights.(!k) <- w;
          incr k)
        r)
    rows;
  row_ptr.(m) <- !k;
  { m; row_ptr; col_idx; weights; transposed = None }

let normalize_row m e entries =
  let tbl = Hashtbl.create (List.length entries + 1) in
  List.iter
    (fun (e', w) ->
      if e' < 0 || e' >= m then invalid_arg "Measure: link id out of range";
      if Hashtbl.mem tbl e' then invalid_arg "Measure: duplicate entry in row";
      (* Negated-positive form so NaN weights are rejected too: both
         [nan <= 0.] and [nan > 1.] are false. *)
      if not (w > 0. && w <= 1.) then
        invalid_arg "Measure: weight outside (0, 1]";
      Hashtbl.add tbl e' w)
    entries;
  Hashtbl.replace tbl e 1.;
  let row = Hashtbl.fold (fun e' w acc -> (e', w) :: acc) tbl [] in
  let arr = Array.of_list row in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

let of_rows ?m rows =
  let n = Array.length rows in
  (match m with
  | Some m when m <> n ->
    invalid_arg
      (Printf.sprintf "Measure: of_rows got %d rows for declared size m = %d" n
         m)
  | _ -> ());
  if n = 0 then invalid_arg "Measure: of_rows needs at least one row";
  Dense (pack n (Array.mapi (normalize_row n) rows))

let identity m =
  assert (m > 0);
  Dense
    { m;
      row_ptr = Array.init (m + 1) Fun.id;
      col_idx = Array.init m Fun.id;
      weights = Array.make m 1.;
      transposed = None }

let complete m =
  assert (m > 0);
  Dense
    { m;
      row_ptr = Array.init (m + 1) (fun e -> e * m);
      col_idx = Array.init (m * m) (fun k -> k mod m);
      weights = Array.make (m * m) 1.;
      transposed = None }

let of_function ~m f =
  assert (m > 0);
  (* Single pass into growable flat buffers: [f] may be expensive
     (e.g. SINR affectance), so it is called exactly once per pair. *)
  let cap = ref (4 * m) in
  let col_idx = ref (Array.make !cap 0) in
  let weights = ref (Array.make !cap 0.) in
  let k = ref 0 in
  let push e' w =
    if !k = !cap then begin
      let cap' = 2 * !cap in
      let ci = Array.make cap' 0 and ws = Array.make cap' 0. in
      Array.blit !col_idx 0 ci 0 !k;
      Array.blit !weights 0 ws 0 !k;
      col_idx := ci;
      weights := ws;
      cap := cap'
    end;
    !col_idx.(!k) <- e';
    !weights.(!k) <- w;
    incr k
  in
  let row_ptr = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    row_ptr.(e) <- !k;
    for e' = 0 to m - 1 do
      let w = if e' = e then 1. else Float.min 1. (Float.max 0. (f e e')) in
      if w > 0. then push e' w
    done
  done;
  row_ptr.(m) <- !k;
  Dense
    { m;
      row_ptr;
      col_idx = Array.sub !col_idx 0 (Int.max !k 1);
      weights = Array.sub !weights 0 (Int.max !k 1);
      transposed = None }

let row_nnz t e =
  match t with
  | Dense d -> d.row_ptr.(e + 1) - d.row_ptr.(e)
  | Ext x -> x.e_row_nnz e

let iter_row t e f =
  match t with
  | Dense d ->
    for k = d.row_ptr.(e) to d.row_ptr.(e + 1) - 1 do
      f d.col_idx.(k) d.weights.(k)
    done
  | Ext x -> x.e_iter_row e f

let row t e =
  match t with
  | Dense d ->
    Array.init
      (d.row_ptr.(e + 1) - d.row_ptr.(e))
      (fun i ->
        let k = d.row_ptr.(e) + i in
        (d.col_idx.(k), d.weights.(k)))
  | Ext x ->
    let out = Array.make (x.e_row_nnz e) (0, 0.) in
    let i = ref 0 in
    x.e_iter_row e (fun e' w ->
        out.(!i) <- (e', w);
        incr i);
    out

let weight t e e' =
  match t with
  | Dense d ->
    (* Rows are sorted by link id: binary search inside the row slice. *)
    let rec search lo hi =
      if lo > hi then 0.
      else
        let mid = (lo + hi) / 2 in
        let id = d.col_idx.(mid) in
        if id = e' then d.weights.(mid)
        else if id < e' then search (mid + 1) hi
        else search lo (mid - 1)
    in
    search d.row_ptr.(e) (d.row_ptr.(e + 1) - 1)
  | Ext x -> x.e_weight e e'

(* CSR -> CSC by counting sort: scanning rows in order scatters each
   column's row indices already sorted. *)
let dense_transpose d =
  match d.transposed with
  | Some tr -> tr
  | None ->
    let n = d.row_ptr.(d.m) in
    let col_ptr = Array.make (d.m + 1) 0 in
    for k = 0 to n - 1 do
      let c = d.col_idx.(k) in
      col_ptr.(c + 1) <- col_ptr.(c + 1) + 1
    done;
    for c = 1 to d.m do
      col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
    done;
    let next = Array.copy col_ptr in
    let row_idx = Array.make (Int.max n 1) 0 in
    let col_weights = Array.make (Int.max n 1) 0. in
    for e = 0 to d.m - 1 do
      for k = d.row_ptr.(e) to d.row_ptr.(e + 1) - 1 do
        let c = d.col_idx.(k) in
        let slot = next.(c) in
        row_idx.(slot) <- e;
        col_weights.(slot) <- d.weights.(k);
        next.(c) <- slot + 1
      done
    done;
    let tr =
      { col_ptr; row_idx; col_weights; views = Array.make d.m unfetched }
    in
    d.transposed <- Some tr;
    tr

let ensure_transpose = function
  | Dense d -> ignore (dense_transpose d)
  | Ext _ -> ()

(* A racing first request from two domains stores two equal views, one
   of which stays: no answer depends on which. *)
let column t e' =
  match t with
  | Dense d ->
    let tr = dense_transpose d in
    let c = tr.views.(e') in
    if c != unfetched then c
    else begin
      let c =
        { rows = tr.row_idx;
          weights = tr.col_weights;
          lo = tr.col_ptr.(e');
          hi = tr.col_ptr.(e' + 1) }
      in
      tr.views.(e') <- c;
      c
    end
  | Ext x -> x.e_column e'

let iter_column t e' f =
  let c = column t e' in
  for k = c.lo to c.hi - 1 do
    f c.rows.(k) c.weights.(k)
  done

let interference_at t load e =
  match t with
  | Dense d ->
    assert (Array.length load = d.m);
    let acc = ref 0. in
    for k = d.row_ptr.(e) to d.row_ptr.(e + 1) - 1 do
      acc := !acc +. (d.weights.(k) *. load.(d.col_idx.(k)))
    done;
    !acc
  | Ext x -> x.e_interference_at load e

let interference t load =
  match t with
  | Dense d ->
    let best = ref 0. in
    for e = 0 to d.m - 1 do
      let v = interference_at t load e in
      if v > !best then best := v
    done;
    !best
  | Ext x -> x.e_interference load

let interference_of_counts t counts =
  interference t (Array.map float_of_int counts)

let max_row_sum t =
  match t with
  | Dense d ->
    let best = ref 0. in
    for e = 0 to d.m - 1 do
      let s = ref 0. in
      for k = d.row_ptr.(e) to d.row_ptr.(e + 1) - 1 do
        s := !s +. d.weights.(k)
      done;
      if !s > !best then best := !s
    done;
    !best
  | Ext x -> x.e_max_row_sum ()
