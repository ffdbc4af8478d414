(* ε-sparsified interference measure over a spatial tiling.

   Rows live in flat Bigarray slabs (int32 column ids + float64 weights),
   grouped tile-major so one tile's working set is contiguous. Entries are
   dropped under a two-level budget, ε/2 each (docs/SCALING.md):

   - far field: a global chebyshev tile radius [near] is chosen so that, for
     every tile, the decay bound summed over all points beyond the window is
     ≤ ε/2 (ring counts are O(1) via the tiling's summed-area table);
   - near field: inside the window, entries ≤ θ = (ε/2)/(window − 1) are
     dropped with their exact mass accumulated per row.

   The per-row sum of dropped mass (exact near mass + far-field bound) is
   recorded in [row_bound], so for any load R ≥ 0

     0 ≤ I_dense(R) − I_sparse(R) ≤ max_row_bound · ‖R‖∞ ≤ ε · ‖R‖∞

   where I_dense is the measure [Measure.of_function] would build from the
   same clamped gain. All parallel steps return per-tile values that the
   caller folds in fixed tile order, so results are byte-identical in
   [jobs] (the Dps_par.Par contract). *)

module Tiling = Dps_geometry.Tiling
module Par = Dps_par.Par

type cols_slab = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type wts_slab = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  m : int;
  tiling : Tiling.t;
  epsilon : float;
  near : int;
  order : int array;  (* slab row -> link id (tile-major) *)
  pos : int array;  (* link id -> slab row *)
  row_ptr : int array;  (* length m+1: slab row -> slab offset *)
  cols : cols_slab;  (* link ids, ascending inside a row *)
  wts : wts_slab;
  tile_rows : int array;  (* tile -> first slab row; length tiles+1 *)
  nonempty : int list;  (* occupied tiles, ascending *)
  row_bound : float array;  (* link id -> dropped-mass bound *)
  max_row_bound : float;
  col_cache : Measure.column array;  (* link id -> column, [unfetched] until built *)
}

(* Placeholder for a column not built yet (every real column holds at
   least the diagonal). *)
let unfetched = { Measure.rows = [||]; weights = [||]; lo = 0; hi = 0 }

let size t = t.m
let nnz t = t.row_ptr.(t.m)
let epsilon t = t.epsilon
let near_radius t = t.near
let tiling t = t.tiling
let row_bound t e = t.row_bound.(e)
let max_row_bound t = t.max_row_bound

let bytes t =
  let n = nnz t in
  (* cols (4) + wts (8) per entry; row_ptr/order/pos/row_bound per link;
     tile_rows per tile. *)
  (12 * n) + (8 * (t.m + 1)) + (24 * t.m) + (8 * (Tiling.tiles t.tiling + 1))

let clamp_weight who w =
  if Float.is_nan w then invalid_arg (who ^ ": gain returned NaN");
  Float.min 1. (Float.max 0. w)

(* Smallest K such that Σ_{k > K} ring_count(k) · bnd(k) ≤ budget, walking
   rings outside-in. [bnd] is per-entry by ring; monotonicity is not
   required, only that it upper-bounds every entry of its ring. *)
let near_for_tile tiling bnd ~budget a =
  let kmax = Tiling.max_ring tiling a in
  let acc = ref 0. in
  let k = ref kmax in
  let stop = ref false in
  while (not !stop) && !k >= 1 do
    let contrib = float_of_int (Tiling.ring_count tiling a !k) *. bnd.(!k) in
    if !acc +. contrib > budget then stop := true
    else begin
      acc := !acc +. contrib;
      decr k
    end
  done;
  !k

let create ?(jobs = 1) ?cell ~epsilon ~points ~gain ~bound () =
  if not (epsilon >= 0.) then invalid_arg "Tiled.create: epsilon must be >= 0";
  if jobs < 1 then invalid_arg "Tiled.create: jobs must be >= 1";
  let m = Array.length points in
  if m = 0 then invalid_arg "Tiled.create: empty point set";
  let tiling = Tiling.create ?cell ~points () in
  let ntiles = Tiling.tiles tiling in
  let cellw = Tiling.cell tiling in
  let half = epsilon /. 2. in
  (* Per-entry upper bound for ring k: any two points in tiles at chebyshev
     distance k are ≥ (k − 1)·cell apart. Rings 0 and 1 have no distance
     guarantee, so their entries are only ever dropped by the exact
     near-field accounting. *)
  let kcap = Int.max (Tiling.nx tiling) (Tiling.ny tiling) in
  let bnd =
    Array.init (kcap + 1) (fun k ->
        if k <= 1 then 1.
        else
          let b = bound (float_of_int (k - 1) *. cellw) in
          if Float.is_nan b then invalid_arg "Tiled.create: bound returned NaN";
          Float.min 1. (Float.max 0. b))
  in
  let nonempty =
    List.filter (fun a -> Tiling.occupancy tiling a > 0) (List.init ntiles Fun.id)
  in
  let near =
    List.fold_left
      (fun acc a -> Int.max acc (near_for_tile tiling bnd ~budget:half a))
      0 nonempty
  in
  (* Far-field bound per tile under the global radius (≤ ε/2 by choice of
     [near], and usually much smaller for interior tiles). *)
  let far = Array.make ntiles 0. in
  List.iter
    (fun a ->
      let s = ref 0. in
      for k = near + 1 to Tiling.max_ring tiling a do
        s := !s +. (float_of_int (Tiling.ring_count tiling a k) *. bnd.(k))
      done;
      far.(a) <- !s)
    nonempty;
  (* Build one tile's rows: exact gains against the sorted window candidate
     list, dropping sub-θ entries with exact mass accounting. Pure per tile,
     so the fan-out is Par-contract clean. *)
  let build_tile a =
    let occ = Tiling.occupancy tiling a in
    let wc = Tiling.window_count tiling a ~radius:near in
    let cand = Array.make wc 0 in
    let j = ref 0 in
    Tiling.iter_window tiling a ~radius:near (fun b ->
        Tiling.iter_members tiling b (fun i ->
            cand.(!j) <- i;
            incr j));
    Array.sort (fun (x : int) y -> compare x y) cand;
    let theta = if wc <= 1 then 0. else half /. float_of_int (wc - 1) in
    let row_len = Array.make occ 0 in
    let bounds = Array.make occ 0. in
    let buf_cols = Array.make (occ * wc) 0 in
    let buf_wts = Array.make (occ * wc) 0. in
    let k = ref 0 in
    let r = ref 0 in
    Tiling.iter_members tiling a (fun e ->
        let start = !k in
        let dropped = ref 0. in
        for ci = 0 to wc - 1 do
          let e' = cand.(ci) in
          if e' = e then begin
            buf_cols.(!k) <- e';
            buf_wts.(!k) <- 1.;
            incr k
          end
          else begin
            let w = clamp_weight "Tiled.create" (gain e e') in
            if w > theta then begin
              buf_cols.(!k) <- e';
              buf_wts.(!k) <- w;
              incr k
            end
            else dropped := !dropped +. w
          end
        done;
        row_len.(!r) <- !k - start;
        bounds.(!r) <- !dropped +. far.(a);
        incr r);
    (row_len, bounds, Array.sub buf_cols 0 !k, Array.sub buf_wts 0 !k)
  in
  let built = Par.map ~jobs build_tile nonempty in
  let total =
    List.fold_left (fun acc (_, _, c, _) -> acc + Array.length c) 0 built
  in
  let row_ptr = Array.make (m + 1) 0 in
  let cols = Bigarray.(Array1.create int32 c_layout (Int.max total 1)) in
  let wts = Bigarray.(Array1.create float64 c_layout (Int.max total 1)) in
  let order = Array.make m 0 in
  let pos = Array.make m 0 in
  let row_bound = Array.make m 0. in
  let tile_rows = Array.make (ntiles + 1) 0 in
  for a = 0 to ntiles - 1 do
    tile_rows.(a + 1) <- tile_rows.(a) + Tiling.occupancy tiling a
  done;
  let k = ref 0 in
  let r = ref 0 in
  List.iter2
    (fun a (row_len, bounds, bcols, bwts) ->
      let src = ref 0 in
      let ri = ref 0 in
      Tiling.iter_members tiling a (fun e ->
          order.(!r) <- e;
          pos.(e) <- !r;
          row_ptr.(!r) <- !k;
          row_bound.(e) <- bounds.(!ri);
          for j = 0 to row_len.(!ri) - 1 do
            Bigarray.Array1.unsafe_set cols !k (Int32.of_int bcols.(!src + j));
            Bigarray.Array1.unsafe_set wts !k bwts.(!src + j);
            incr k
          done;
          src := !src + row_len.(!ri);
          incr ri;
          incr r))
    nonempty built;
  row_ptr.(m) <- !k;
  let max_row_bound = Array.fold_left Float.max 0. row_bound in
  { m;
    tiling;
    epsilon;
    near;
    order;
    pos;
    row_ptr;
    cols;
    wts;
    tile_rows;
    nonempty;
    row_bound;
    max_row_bound;
    col_cache = Array.make m unfetched }

let row_nnz t e =
  let r = t.pos.(e) in
  t.row_ptr.(r + 1) - t.row_ptr.(r)

let iter_row t e f =
  let r = t.pos.(e) in
  for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
    f (Int32.to_int (Bigarray.Array1.unsafe_get t.cols k))
      (Bigarray.Array1.unsafe_get t.wts k)
  done

let dot_row t load r =
  let acc = ref 0. in
  for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
    let c = Int32.to_int (Bigarray.Array1.unsafe_get t.cols k) in
    acc := !acc +. (Bigarray.Array1.unsafe_get t.wts k *. Array.unsafe_get load c)
  done;
  !acc

let interference_at t load e =
  if Array.length load <> t.m then
    invalid_arg "Tiled.interference_at: load length mismatch";
  dot_row t load t.pos.(e)

let tile_max t load a =
  let best = ref 0. in
  for r = t.tile_rows.(a) to t.tile_rows.(a + 1) - 1 do
    let v = dot_row t load r in
    if v > !best then best := v
  done;
  !best

let interference ?(jobs = 1) t load =
  if Array.length load <> t.m then
    invalid_arg "Tiled.interference: load length mismatch";
  let per_tile = Par.map ~jobs (fun a -> tile_max t load a) t.nonempty in
  List.fold_left Float.max 0. per_tile

(* Slab offset of entry [e'] in slab row [r], or -1: rows are sorted by
   link id, so binary search inside the row. *)
let find t r e' =
  let rec search lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let id = Int32.to_int (Bigarray.Array1.unsafe_get t.cols mid) in
      if id = e' then mid else if id < e' then search (mid + 1) hi else search lo (mid - 1)
  in
  search t.row_ptr.(r) (t.row_ptr.(r + 1) - 1)

let weight t e e' =
  let k = find t t.pos.(e) e' in
  if k < 0 then 0. else Bigarray.Array1.unsafe_get t.wts k

let max_row_sum t =
  let best = ref 0. in
  for r = 0 to t.m - 1 do
    let s = ref 0. in
    for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
      s := !s +. Bigarray.Array1.unsafe_get t.wts k
    done;
    if !s > !best then best := !s
  done;
  !best

(* Column e' on demand. Row e stores only columns within [near] tiles of
   its own tile, so only rows of the tiles within [near] of e''s tile can
   hold e'; each is binary-searched. The rows are sorted ascending by
   link id — the dense transpose order, which keeps Load_tracker's
   column-push summation order (and every float) identical to the dense
   backend at ε = 0. *)
let build_column t e' =
  let tiling = t.tiling in
  let hits = ref [] in
  Tiling.iter_window tiling (Tiling.tile_of tiling e') ~radius:t.near (fun b ->
      for r = t.tile_rows.(b) to t.tile_rows.(b + 1) - 1 do
        let k = find t r e' in
        if k >= 0 then hits := (t.order.(r), Bigarray.Array1.unsafe_get t.wts k) :: !hits
      done);
  let hits = Array.of_list !hits in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) hits;
  { Measure.rows = Array.map fst hits;
    weights = Array.map snd hits;
    lo = 0;
    hi = Array.length hits }

(* One store per engine, shared by every [as_measure] view and every
   tracker over them. A racing first request from two domains stores two
   equal columns, one of which stays: no answer depends on which. *)
let column t e' =
  let c = t.col_cache.(e') in
  if c != unfetched then c
  else begin
    let c = build_column t e' in
    t.col_cache.(e') <- c;
    c
  end

let as_measure ?(jobs = 1) t =
  if jobs < 1 then invalid_arg "Tiled.as_measure: jobs must be >= 1";
  Measure.of_ext ~m:t.m
    ~nnz:(fun () -> nnz t)
    ~row_nnz:(row_nnz t) ~iter_row:(iter_row t) ~weight:(weight t)
    ~column:(column t)
    ~interference_at:(fun load e -> interference_at t load e)
    ~interference:(fun load -> interference ~jobs t load)
    ~max_row_sum:(fun () -> max_row_sum t)
    ~error_bound:t.max_row_bound
    ~row_error:(fun e -> t.row_bound.(e))
    ()

let to_measure t =
  let rows = Array.make t.m [] in
  for r = t.m - 1 downto 0 do
    let e = t.order.(r) in
    let entries = ref [] in
    for k = t.row_ptr.(r + 1) - 1 downto t.row_ptr.(r) do
      let c = Int32.to_int (Bigarray.Array1.unsafe_get t.cols k) in
      if c <> e then
        entries := (c, Bigarray.Array1.unsafe_get t.wts k) :: !entries
    done;
    rows.(e) <- !entries
  done;
  Measure.of_rows ~m:t.m rows

type measure = t

(* The incremental tracker is Load_tracker over the [as_measure] view:
   column pushes cost O(nnz(column)), reset is sparse, and the tracked
   value is the exact sparse interference — the earlier dirty-tile
   recomputation had O(occupied-tiles) resets and re-derived row dots in
   slab order, which broke ε = 0 byte-identity with the dense backend. *)
module Tracker = struct
  type nonrec t = { meas : measure; lt : Load_tracker.t }
  type backing = measure

  let create ?jobs meas =
    { meas; lt = Load_tracker.create ?jobs (as_measure ?jobs meas) }

  let measure tr = tr.meas
  let load tr e = Load_tracker.load tr.lt e

  let add_scaled tr e c =
    if e < 0 || e >= tr.meas.m then
      invalid_arg "Tiled.Tracker: link out of range";
    Load_tracker.add_scaled tr.lt e c

  let add tr e = add_scaled tr e 1.
  let remove tr e = add_scaled tr e (-1.)
  let interference_at tr e = Load_tracker.interference_at tr.lt e
  let interference ?jobs tr = Load_tracker.interference ?jobs tr.lt
  let reset tr = Load_tracker.reset tr.lt
end
