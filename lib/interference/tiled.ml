(* ε-sparsified interference measure over a spatial tiling.

   Entries are dropped under a two-level budget, ε/2 each
   (docs/SCALING.md):

   - far field: a global chebyshev tile radius [near] is chosen so that, for
     every tile, the decay bound summed over all points beyond the window is
     ≤ ε/2 (ring counts are O(1) via the tiling's summed-area table);
   - near field: inside the window, entries ≤ θ = (ε/2)/(window − 1) are
     dropped with their exact mass accumulated per row.

   The per-row sum of dropped mass (exact near mass + far-field bound) is
   recorded as the measure's [row_error], so for any load R ≥ 0

     0 ≤ I_dense(R) − I_sparse(R) ≤ max_row_bound · ‖R‖∞ ≤ ε · ‖R‖∞

   where I_dense is the measure [Measure.of_function] would build from the
   same clamped gain. Rows are built per tile, in parallel, then packed in
   link order into one [Measure.t]; the pack walks tiles in fixed order,
   so the measure is byte-identical in [jobs] (the Dps_par.Par
   contract). *)

module Tiling = Dps_geometry.Tiling
module Par = Dps_par.Par

type t = {
  tiling : Tiling.t;
  epsilon : float;
  near : int;
  measure : Measure.t;
}

let size t = Measure.size t.measure
let nnz t = Measure.nnz t.measure
let epsilon t = t.epsilon
let near_radius t = t.near
let tiling t = t.tiling
let max_row_bound t = Measure.error_bound t.measure

let bytes t =
  (* cols (4) + weights (8) per entry; row_ptr and row_error per link. *)
  let m = size t in
  (12 * nnz t) + (8 * (m + 1)) + (8 * m)

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
  (* Pack in link order: row lengths first, then each tile's rows copied
     to their links' offsets. *)
  let row_ptr = Array.make (m + 1) 0 in
  let row_error = Array.make m 0. in
  List.iter2
    (fun a (row_len, bounds, _, _) ->
      let ri = ref 0 in
      Tiling.iter_members tiling a (fun e ->
          row_ptr.(e + 1) <- row_len.(!ri);
          row_error.(e) <- bounds.(!ri);
          incr ri))
    nonempty built;
  for e = 1 to m do
    row_ptr.(e) <- row_ptr.(e) + row_ptr.(e - 1)
  done;
  let cols = Bigarray.(Array1.create int32 c_layout (Int.max row_ptr.(m) 1)) in
  let wts = Bigarray.(Array1.create float64 c_layout (Int.max row_ptr.(m) 1)) in
  List.iter2
    (fun a (row_len, _, bcols, bwts) ->
      let src = ref 0 in
      let ri = ref 0 in
      Tiling.iter_members tiling a (fun e ->
          let dst = row_ptr.(e) in
          for j = 0 to row_len.(!ri) - 1 do
            cols.{dst + j} <- Int32.of_int bcols.(!src + j);
            wts.{dst + j} <- bwts.(!src + j)
          done;
          src := !src + row_len.(!ri);
          incr ri))
    nonempty built;
  { tiling;
    epsilon;
    near;
    measure =
      Measure.of_csr ~window:(tiling, near) ~row_ptr ~cols ~weights:wts
        ~row_error () }

let as_measure ?(jobs = 1) t =
  if jobs < 1 then invalid_arg "Tiled.as_measure: jobs must be >= 1";
  t.measure
