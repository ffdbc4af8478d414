(* One representation for every measure: CSR rows in Bigarray slabs.

   Row e spans [row_ptr.(e), row_ptr.(e+1)) in [cols]/[weights], with
   column ids strictly ascending inside the row and the diagonal always
   present. [row_error.(e)] is how far the row may fall below the matrix
   it approximates: 0 from the dense constructors, the dropped mass from
   the ε-sparsified tiled build.

   Columns are handed out as [column] views, made on the first request
   and kept in [columns], so a repeated request returns the same view
   without allocating and every Load_tracker over one measure shares its
   columns. How an unkept column is built is the one thing the data
   decides:
   - without a [window] any row may hold any column, so the first
     request builds the CSC transpose (O(m + nnz), once) and every
     column is a slice of it;
   - with a window (the tiled build) only the rows of the tiles within
     [radius] of the column's tile can hold it; each is binary-searched
     and only that column is built. A full index of the tiled slabs
     measured +13% peak RSS on the cloud benchmark (docs/SCALING.md).
   Either way a column lists its rows ascending, the order of the dense
   transpose, so incremental consumers sum in the same float order and
   an exact tiled measure stays byte-identical to the dense one. *)

module Tiling = Dps_geometry.Tiling
module A1 = Bigarray.Array1

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
type wts = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type column = { rows : int array; weights : float array; lo : int; hi : int }

type csc = {
  col_ptr : int array;  (* length m+1 *)
  row_idx : int array;  (* length nnz; ascending inside a column *)
  col_weights : float array;
}

type t = {
  m : int;
  row_ptr : int array;  (* length m+1 *)
  cols : ids;
  weights : wts;
  row_error : float array;
  error_bound : float;  (* largest row_error *)
  window : (Tiling.t * int) option;
  columns : column array;  (* [unfetched] until requested *)
  mutable csc : csc option;  (* built on demand when there is no window *)
}

(* Placeholder for a column not built yet (every real column holds at
   least the diagonal). *)
let unfetched = { rows = [||]; weights = [||]; lo = 0; hi = 0 }

let make ?window ~row_ptr ~cols ~weights ~row_error () =
  let m = Array.length row_ptr - 1 in
  { m;
    row_ptr;
    cols;
    weights;
    row_error;
    error_bound = Array.fold_left Float.max 0. row_error;
    window;
    columns = Array.make m unfetched;
    csc = None }

let size t = t.m
let nnz t = t.row_ptr.(t.m)
let error_bound t = t.error_bound
let row_error t e = t.row_error.(e)

(* ------------------------------------------------------ construction *)

(* A fresh slab of length [n] that starts with [a]'s first entries. *)
let resize a n =
  let b = A1.create (A1.kind a) Bigarray.c_layout (Int.max n 1) in
  let k = Int.min n (A1.dim a) in
  A1.blit (A1.sub a 0 k) (A1.sub b 0 k);
  b

(* Rows appended in order, ids ascending inside each, into slabs that
   double when full: the dense constructors' common path. *)
type buffer = {
  ptr : int array;
  mutable b_cols : ids;
  mutable b_wts : wts;
  mutable len : int;
}

let buffer m ~cap =
  { ptr = Array.make (m + 1) 0;
    b_cols = A1.create Bigarray.int32 Bigarray.c_layout (Int.max cap 1);
    b_wts = A1.create Bigarray.float64 Bigarray.c_layout (Int.max cap 1);
    len = 0 }

let push b e' w =
  if b.len = A1.dim b.b_cols then begin
    b.b_cols <- resize b.b_cols (2 * b.len);
    b.b_wts <- resize b.b_wts (2 * b.len)
  end;
  b.b_cols.{b.len} <- Int32.of_int e';
  b.b_wts.{b.len} <- w;
  b.len <- b.len + 1

let end_row b e = b.ptr.(e + 1) <- b.len

let finish b =
  let trim a = if A1.dim a = Int.max b.len 1 then a else resize a b.len in
  make ~row_ptr:b.ptr ~cols:(trim b.b_cols) ~weights:(trim b.b_wts)
    ~row_error:(Array.make (Array.length b.ptr - 1) 0.)
    ()

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
  let rows = Array.mapi (normalize_row n) rows in
  let b =
    buffer n ~cap:(Array.fold_left (fun acc r -> acc + Array.length r) 0 rows)
  in
  Array.iteri
    (fun e r ->
      Array.iter (fun (e', w) -> push b e' w) r;
      end_row b e)
    rows;
  finish b

let identity m =
  assert (m > 0);
  let b = buffer m ~cap:m in
  for e = 0 to m - 1 do
    push b e 1.;
    end_row b e
  done;
  finish b

let complete m =
  assert (m > 0);
  let b = buffer m ~cap:(m * m) in
  for e = 0 to m - 1 do
    for e' = 0 to m - 1 do
      push b e' 1.
    done;
    end_row b e
  done;
  finish b

let of_function ~m f =
  assert (m > 0);
  (* One pass into growing slabs: [f] may be expensive (e.g. SINR
     affectance), so it is called exactly once per pair. *)
  let b = buffer m ~cap:(4 * m) in
  for e = 0 to m - 1 do
    for e' = 0 to m - 1 do
      let w =
        if e' = e then 1.
        else
          let w = f e e' in
          (* a NaN survives the clamp below and fails [w > 0.], which
             would drop the entry without a word *)
          if Float.is_nan w then
            invalid_arg "Measure.of_function: f returned NaN";
          Float.min 1. (Float.max 0. w)
      in
      if w > 0. then push b e' w
    done;
    end_row b e
  done;
  finish b

let of_csr ?window ~row_ptr ~cols ~weights ~row_error () =
  let fail what = invalid_arg ("Measure.of_csr: " ^ what) in
  let m = Array.length row_ptr - 1 in
  if m < 1 then fail "no rows";
  if Array.length row_error <> m then fail "row_error length differs from m";
  if row_ptr.(0) <> 0 || A1.dim weights <> A1.dim cols then
    fail "row_ptr and slabs disagree";
  (match window with
  | Some (tiling, _) when Tiling.point_count tiling <> m ->
    fail "window tiles other links"
  | _ -> ());
  for e = 0 to m - 1 do
    if row_ptr.(e + 1) < row_ptr.(e) || row_ptr.(e + 1) > A1.dim cols then
      fail "row_ptr and slabs disagree";
    if not (row_error.(e) >= 0.) then fail "row_error below 0";
    let prev = ref (-1) and diagonal = ref false in
    for k = row_ptr.(e) to row_ptr.(e + 1) - 1 do
      let e' = Int32.to_int cols.{k} and w = weights.{k} in
      if e' <= !prev || e' >= m then fail "ids not ascending inside [0, m)";
      if not (w > 0. && w <= 1.) then fail "weight outside (0, 1]";
      if e' = e then diagonal := w = 1.;
      prev := e'
    done;
    if not !diagonal then fail "diagonal missing or not 1"
  done;
  make ?window ~row_ptr ~cols ~weights ~row_error ()

(* --------------------------------------------------------------- rows *)

let row_nnz t e = t.row_ptr.(e + 1) - t.row_ptr.(e)

let iter_row t e f =
  for k = t.row_ptr.(e) to t.row_ptr.(e + 1) - 1 do
    f (Int32.to_int t.cols.{k}) t.weights.{k}
  done

(* Slab offset of entry [e'] in row [e], or -1: rows are sorted by link
   id, so binary search inside the row. *)
let find t e e' =
  let rec search lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let id = Int32.to_int t.cols.{mid} in
      if id = e' then mid
      else if id < e' then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search t.row_ptr.(e) (t.row_ptr.(e + 1) - 1)

let weight t e e' =
  let k = find t e e' in
  if k < 0 then 0. else t.weights.{k}

let check_load who t load =
  if Array.length load <> t.m then invalid_arg (who ^ ": load length mismatch")

(* Row [e] against [load], in ascending column order. The unchecked
   reads stay in range: every constructor leaves the ids in [0, m) and
   the rows inside the slabs ([of_csr] checks both), and the callers
   check the length of [load]. *)
let[@inline] dot t load e =
  let acc = ref 0. in
  for k = t.row_ptr.(e) to t.row_ptr.(e + 1) - 1 do
    let c = Int32.to_int (A1.unsafe_get t.cols k) in
    acc := !acc +. (A1.unsafe_get t.weights k *. Array.unsafe_get load c)
  done;
  !acc

let interference_at t load e =
  check_load "Measure.interference_at" t load;
  dot t load e

let interference t load =
  check_load "Measure.interference" t load;
  let best = ref 0. in
  for e = 0 to t.m - 1 do
    let v = dot t load e in
    if v > !best then best := v
  done;
  !best

let max_row_sum t =
  let best = ref 0. in
  for e = 0 to t.m - 1 do
    let s = ref 0. in
    for k = t.row_ptr.(e) to t.row_ptr.(e + 1) - 1 do
      s := !s +. t.weights.{k}
    done;
    if !s > !best then best := !s
  done;
  !best

(* ------------------------------------------------------------ columns *)

(* CSR -> CSC by counting sort: scanning rows in order scatters each
   column's row indices already sorted. *)
let transpose t =
  match t.csc with
  | Some csc -> csc
  | None ->
    let n = nnz t in
    let col_ptr = Array.make (t.m + 1) 0 in
    for k = 0 to n - 1 do
      let c = Int32.to_int t.cols.{k} in
      col_ptr.(c + 1) <- col_ptr.(c + 1) + 1
    done;
    for c = 1 to t.m do
      col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
    done;
    let next = Array.copy col_ptr in
    let row_idx = Array.make (Int.max n 1) 0 in
    let col_weights = Array.make (Int.max n 1) 0. in
    for e = 0 to t.m - 1 do
      for k = t.row_ptr.(e) to t.row_ptr.(e + 1) - 1 do
        let c = Int32.to_int t.cols.{k} in
        let slot = next.(c) in
        row_idx.(slot) <- e;
        col_weights.(slot) <- t.weights.{k};
        next.(c) <- slot + 1
      done
    done;
    let csc = { col_ptr; row_idx; col_weights } in
    t.csc <- Some csc;
    csc

let ensure_transpose t = if Option.is_none t.window then ignore (transpose t)

let window_column t (tiling, radius) e' =
  let hits = ref [] in
  Tiling.iter_window tiling (Tiling.tile_of tiling e') ~radius (fun b ->
      Tiling.iter_members tiling b (fun e ->
          let k = find t e e' in
          if k >= 0 then hits := (e, t.weights.{k}) :: !hits));
  let hits = Array.of_list !hits in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) hits;
  { rows = Array.map fst hits;
    weights = Array.map snd hits;
    lo = 0;
    hi = Array.length hits }

(* A racing first request from two domains stores two equal views, one
   of which stays: no answer depends on which. *)
let column t e' =
  let c = t.columns.(e') in
  if c != unfetched then c
  else begin
    let c =
      match t.window with
      | Some window -> window_column t window e'
      | None ->
        let csc = transpose t in
        { rows = csc.row_idx;
          weights = csc.col_weights;
          lo = csc.col_ptr.(e');
          hi = csc.col_ptr.(e' + 1) }
    in
    t.columns.(e') <- c;
    c
  end
