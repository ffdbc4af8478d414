(* The all-pairs implementations the library replaced, kept as test
   oracles: conflict graphs that judge every pair of links, the O(m²)
   smallest-last scan, the measure built from row lists, and routing
   from a V×V table of breadth-first searches. They are slow and
   obviously right; test_interference and test_network hold the library
   to them on the random small graphs of [graph]. *)

module Rng = Dps_prelude.Rng
module Point = Dps_geometry.Point
module Graph = Dps_network.Graph
module Link = Dps_network.Link
module Path = Dps_network.Path
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure

(* ------------------------------------------------------ random graphs *)

let families =
  [| "line"; "grid"; "random geometric"; "link cloud"; "random directed" |]

(* A small graph of family [families.(family)], drawn from [seed]. The
   random directed graphs have mostly one-way links, parallel links and
   nodes on a 4×4 integer lattice, so that distances tie, nodes
   coincide and guard zones end exactly on a node. *)
let graph ~family ~seed =
  let rng = Rng.create ~seed () in
  match family with
  | 0 ->
    Topology.line ~nodes:(2 + Rng.int rng 10)
      ~spacing:(float_of_int (1 + Rng.int rng 10))
  | 1 -> Topology.grid ~rows:(1 + Rng.int rng 4) ~cols:(2 + Rng.int rng 4) ~spacing:10.
  | 2 ->
    Topology.random_geometric rng ~nodes:(2 + Rng.int rng 14) ~side:30.
      ~radius:(5. +. Rng.float rng 15.)
  | 3 ->
    Topology.link_cloud rng ~links:(1 + Rng.int rng 20)
      ~side:(1. +. Rng.float rng 10.)
      ~length:(0.5 +. Rng.float rng 2.)
  | _ ->
    let n = 2 + Rng.int rng 9 in
    let lattice () = float_of_int (Rng.int rng 4) in
    let positions = Array.init n (fun _ -> Point.make (lattice ()) (lattice ())) in
    let links =
      List.init (Rng.int rng 25) (fun id ->
          let src = Rng.int rng n in
          Link.make ~id ~src ~dst:((src + 1 + Rng.int rng (n - 1)) mod n))
    in
    Graph.create ~positions ~links

(* A family index and a seed for [graph]. *)
let arb_graph =
  QCheck.make
    ~print:(fun (family, seed) -> Printf.sprintf "%s, seed %d" families.(family) seed)
    QCheck.Gen.(pair (int_bound (Array.length families - 1)) nat)

(* ---------------------------------------------------- conflict graphs *)

let pairs_of_predicate g pred =
  let m = Graph.link_count g in
  let acc = ref [] in
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      if pred (Graph.link g a) (Graph.link g b) then acc := (a, b) :: !acc
    done
  done;
  !acc

(* The rows [Conflict_graph.create] builds from a pair list: duplicates
   and self-loops dropped through a table, each row ascending. *)
let rows ~links pairs =
  let sets = Array.make links [] in
  let seen = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (a, b) ->
      let key = (min a b, max a b) in
      if a <> b && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        sets.(a) <- b :: sets.(a);
        sets.(b) <- a :: sets.(b)
      end)
    pairs;
  Array.map
    (fun l ->
      let arr = Array.of_list l in
      Array.sort compare arr;
      arr)
    sets

let of_predicate g pred =
  rows ~links:(Graph.link_count g) (pairs_of_predicate g pred)

let share_endpoint (a : Link.t) (b : Link.t) =
  a.src = b.src || a.src = b.dst || a.dst = b.src || a.dst = b.dst

let node_constraint g = of_predicate g share_endpoint

let distance2 g =
  let adjacent_nodes u v =
    u = v
    || Option.is_some (Graph.find_link g ~src:u ~dst:v)
    || Option.is_some (Graph.find_link g ~src:v ~dst:u)
  in
  of_predicate g (fun (a : Link.t) (b : Link.t) ->
      List.exists
        (fun u -> List.exists (adjacent_nodes u) [ b.src; b.dst ])
        [ a.src; a.dst ])

let protocol_model g ~delta =
  let reaches (a : Link.t) (b : Link.t) =
    let sender = Graph.position g a.src in
    let receiver = Graph.position g b.dst in
    let range = (1. +. delta) *. Graph.link_length g b.id in
    Point.distance sender receiver <= range
  in
  of_predicate g (fun a b -> reaches a b || reaches b a)

let radio_model g =
  let sends_into sender receiver =
    Option.is_some (Graph.find_link g ~src:sender ~dst:receiver)
  in
  let jams (a : Link.t) (b : Link.t) = a.src <> b.src && sends_into a.src b.dst in
  of_predicate g (fun (a : Link.t) (b : Link.t) ->
      a.src = b.src || a.dst = b.dst || jams a b || jams b a)

(* Smallest-last by rescanning every vertex at every step. *)
let degeneracy_order adj =
  let n = Array.length adj in
  let removed = Array.make n false in
  let residual = Array.map Array.length adj in
  let removal = Array.make n (-1) in
  for step = 0 to n - 1 do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not removed.(v)) && (!best < 0 || residual.(v) < residual.(!best))
      then best := v
    done;
    let v = !best in
    removed.(v) <- true;
    removal.(step) <- v;
    Array.iter
      (fun u -> if not removed.(u) then residual.(u) <- residual.(u) - 1)
      adj.(v)
  done;
  Array.init n (fun rank -> removal.(n - 1 - rank))

let to_measure adj ~order =
  let rank = Array.make (Array.length order) (-1) in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  Measure.of_rows
    (Array.mapi
       (fun e row ->
         List.filter_map
           (fun e' -> if rank.(e') <= rank.(e) then Some (e', 1.) else None)
           (Array.to_list row))
       adj)

(* ------------------------------------------------------------ routing *)

module Routing = struct
  type t = {
    graph : Graph.t;
    parent : int array array;  (* parent.(src).(v): link reaching v *)
    dist : int array array;
  }

  let bfs g src =
    let n = Graph.node_count g in
    let dist = Array.make n (-1) and parent = Array.make n (-1) in
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun id ->
          let dst = (Graph.link g id).Link.dst in
          if dist.(dst) < 0 then begin
            dist.(dst) <- dist.(v) + 1;
            parent.(dst) <- id;
            Queue.add dst queue
          end)
        (Graph.out_links g v)
    done;
    (dist, parent)

  let make g =
    let tables = Array.init (Graph.node_count g) (bfs g) in
    { graph = g; dist = Array.map fst tables; parent = Array.map snd tables }

  let distance t ~src ~dst =
    let d = t.dist.(src).(dst) in
    if d <= 0 then None else Some d

  let path t ~src ~dst =
    match distance t ~src ~dst with
    | None -> None
    | Some _ ->
      let rec walk v acc =
        if v = src then acc
        else
          let id = t.parent.(src).(v) in
          walk (Graph.link t.graph id).Link.src (id :: acc)
      in
      Some (Path.of_links t.graph (walk dst []))

  let diameter t =
    Array.fold_left (Array.fold_left Int.max) 0 t.dist
end
