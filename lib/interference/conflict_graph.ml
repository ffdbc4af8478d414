module Graph = Dps_network.Graph
module Link = Dps_network.Link
module Point = Dps_geometry.Point
module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module A1 = Bigarray.Array1

(* [adj.(e)]: the links conflicting with [e], ascending, never [e]. *)
type t = { n : int; adj : int array array }

let create ~links ~conflicts =
  assert (links > 0);
  let rows = Array.make links [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= links || b < 0 || b >= links then
        invalid_arg "Conflict_graph.create: link id out of range";
      if a <> b then begin
        rows.(a) <- b :: rows.(a);
        rows.(b) <- a :: rows.(b)
      end)
    conflicts;
  { n = links;
    adj = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) rows }

let size t = t.n
let conflicts t e = t.adj.(e)

let conflict t e e' = e <> e' && Array.exists (fun x -> x = e') t.adj.(e)

let degree t e = Array.length t.adj.(e)

let independent t links =
  let rec check = function
    | [] -> true
    | e :: rest -> (not (List.exists (conflict t e) rest)) && check rest
  in
  check links

(* A graph whose row [a] is every link other than [a] that [gather a]
   offers. Offers repeat; [taken.(b) = a] keeps one of each. *)
let of_neighbourhoods ~links gather =
  assert (links > 0);
  let taken = Array.make links (-1) and row = Intvec.create () in
  let collect a =
    Intvec.clear row;
    gather a (fun b ->
        if b <> a && taken.(b) <> a then begin
          taken.(b) <- a;
          Intvec.push row b
        end);
    Intvec.sort row;
    Array.sub (Intvec.unsafe_data row) 0 (Intvec.length row)
  in
  { n = links; adj = Array.init links collect }

(* The links into or out of node [v]. *)
let incident g v offer =
  List.iter offer (Graph.out_links g v);
  List.iter offer (Graph.in_links g v)

let node_constraint g =
  of_neighbourhoods ~links:(Graph.link_count g) (fun a offer ->
      let l = Graph.link g a in
      incident g l.src offer;
      incident g l.dst offer)

let distance2 g =
  (* The links incident to a node within one hop of either endpoint. *)
  of_neighbourhoods ~links:(Graph.link_count g) (fun a offer ->
      let around u =
        incident g u offer;
        List.iter (fun id -> incident g (Graph.link g id).dst offer) (Graph.out_links g u);
        List.iter (fun id -> incident g (Graph.link g id).src offer) (Graph.in_links g u)
      in
      let l = Graph.link g a in
      around l.src;
      around l.dst)

let protocol_model g ~delta =
  assert (delta >= 0.);
  let reaches (a : Link.t) (b : Link.t) =
    (* Sender of [a] lies within the guard zone of [b]'s receiver. *)
    Point.distance (Graph.position g a.src) (Graph.position g b.dst)
    <= (1. +. delta) *. Graph.link_length g b.id
  in
  (* Geometry, not adjacency, decides here: every link is judged. *)
  of_neighbourhoods ~links:(Graph.link_count g) (fun a offer ->
      let l = Graph.link g a in
      Array.iter
        (fun (b : Link.t) -> if reaches l b || reaches b l then offer b.id)
        (Graph.links g))

let radio_model g =
  (* [b] conflicts with [l] when they share a sender, share a receiver,
     or either sender is an in-neighbour of the other's receiver. *)
  of_neighbourhoods ~links:(Graph.link_count g) (fun a offer ->
      let l = Graph.link g a in
      List.iter offer (Graph.out_links g l.src);
      List.iter offer (Graph.in_links g l.dst);
      List.iter
        (fun id -> List.iter offer (Graph.in_links g (Graph.link g id).dst))
        (Graph.out_links g l.src);
      List.iter
        (fun id -> List.iter offer (Graph.out_links g (Graph.link g id).src))
        (Graph.in_links g l.dst))

let degeneracy_order t =
  (* Smallest-last ordering: repeatedly remove the vertex of least
     residual degree, the smallest id among ties; the removal sequence
     reversed is the ordering π. A binary heap on the key
     (residual, id), which tracks each vertex's slot in it, makes a
     removal and a residual decrement O(log m) each. *)
  let n = t.n in
  let residual = Array.init n (degree t) in
  let heap = Array.init n Fun.id and slot = Array.init n Fun.id in
  let key v = (residual.(v) * n) + v in
  let place i v = heap.(i) <- v; slot.(v) <- i in
  let rec up i v =
    let p = (i - 1) / 2 in
    if i > 0 && key v < key heap.(p) then (place i heap.(p); up p v) else place i v
  in
  let rec down size i v =
    let c = (2 * i) + 1 in
    let c = if c + 1 < size && key heap.(c + 1) < key heap.(c) then c + 1 else c in
    if c < size && key heap.(c) < key v then (place i heap.(c); down size c v)
    else place i v
  in
  for i = (n / 2) - 1 downto 0 do
    down n i heap.(i)
  done;
  let order = Array.make n (-1) in
  for size = n - 1 downto 0 do
    let v = heap.(0) in
    slot.(v) <- -1;
    order.(size) <- v;
    if size > 0 then down size 0 heap.(size);
    Array.iter
      (fun u ->
        if slot.(u) >= 0 then begin
          residual.(u) <- residual.(u) - 1;
          up slot.(u) u
        end)
      t.adj.(v)
  done;
  order

let rank_of_order order =
  let n = Array.length order in
  let rank = Array.make n (-1) in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  assert (Array.for_all (fun r -> r >= 0) rank);
  rank

let greedy_independent_set t rng =
  let vertices = Array.init t.n (fun i -> i) in
  Rng.shuffle rng vertices;
  let chosen = Array.make t.n false in
  Array.iter
    (fun v ->
      let clash = Array.exists (fun u -> chosen.(u)) t.adj.(v) in
      if not clash then chosen.(v) <- true)
    vertices;
  chosen

let independence_bound t ~order ~samples rng =
  let rank = rank_of_order order in
  let best = ref (if t.n > 0 then 1 else 0) in
  for _ = 1 to samples do
    let chosen = greedy_independent_set t rng in
    for v = 0 to t.n - 1 do
      let later_members =
        Array.fold_left
          (fun acc u -> if chosen.(u) && rank.(u) > rank.(v) then acc + 1 else acc)
          0 t.adj.(v)
      in
      if later_members > !best then best := later_members
    done
  done;
  !best

let to_measure t ~order =
  (* Row e holds the diagonal and the conflicts of smaller rank,
     ascending: counted, then written straight into the CSR slabs. *)
  let rank = rank_of_order order in
  let below e e' = rank.(e') < rank.(e) in
  let row_ptr = Array.make (t.n + 1) 0 in
  Array.iteri
    (fun e adj ->
      let kept = Array.fold_left (fun k e' -> if below e e' then k + 1 else k) 1 adj in
      row_ptr.(e + 1) <- row_ptr.(e) + kept)
    t.adj;
  let cols = A1.create Bigarray.int32 Bigarray.c_layout row_ptr.(t.n) in
  let weights = A1.create Bigarray.float64 Bigarray.c_layout row_ptr.(t.n) in
  A1.fill weights 1.;
  let k = ref 0 in
  let put c =
    cols.{!k} <- Int32.of_int c;
    incr k
  in
  Array.iteri
    (fun e adj ->
      Array.iter (fun e' -> if e' < e && below e e' then put e') adj;
      put e;
      Array.iter (fun e' -> if e' > e && below e e' then put e') adj)
    t.adj;
  Measure.of_csr ~row_ptr ~cols ~weights ~row_error:(Array.make t.n 0.) ()
