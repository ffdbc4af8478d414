(* The plain implementations the library replaced, kept as test
   oracles:
   - conflict graphs that judge every pair of links, the O(m²)
     smallest-last scan, the measure built from row lists, and routing
     from a V×V table of breadth-first searches (test_interference and
     test_network hold the library to them on the random small graphs
     of [graph]);
   - the slot semantics on lists: the oracle rules, the SINR fold, and
     the list-driven contention, delay-select and max-weight greedy set
     (test_live_round, test_static and test_max_weight hold the vector
     slot loop to them);
   - [Lists], the one adapter through which tests that speak lists call
     the library's vector slot API.
   They are slow and obviously right. *)

module Rng = Dps_prelude.Rng
module Intvec = Dps_prelude.Intvec
module Point = Dps_geometry.Point
module Graph = Dps_network.Graph
module Link = Dps_network.Link
module Path = Dps_network.Path
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Physics = Dps_sinr.Physics
module Power_control = Dps_sinr.Power_control
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Request = Dps_static.Request
module Algorithm = Dps_static.Algorithm
module Scratch = Dps_sim.Scratch

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

(* ---------------------------------------------------- list slot adapter *)

(* The library's slot API on lists. A list names links in the order the
   rules see them: [Physics.sinr] and [Oracle.adjudicate] walk their
   vector back to front, so the vector is the reversed list. *)
module Lists = struct
  let rev_vec l = Intvec.of_list (List.rev l)

  (* [step channel attempts] — one slot, attempts submitted head first;
     the successes in the order the channel returns them. *)
  let step channel attempts =
    Intvec.to_list (Channel.step channel (Intvec.of_list attempts))

  let sinr phys ~active e = Physics.sinr phys ~active:(rev_vec active) e
  let feasible phys ~active e = Physics.feasible phys ~active:(rev_vec active) e

  (* [adjudicate ?rng oracle attempts] — the library's rule over the
     deduplicated [attempts], winners in the order it pushes them. *)
  let adjudicate ?rng oracle attempts =
    let rec links = function
      | Oracle.Conflict cg -> Conflict_graph.size cg
      | Oracle.Lossy (base, _) -> links base
      | _ -> 0
    in
    let m = List.fold_left (fun m e -> Int.max m (e + 1)) (links oracle) attempts in
    let marks = Array.make m 0 in
    List.iter (fun e -> marks.(e) <- 1) attempts;
    let winners = Intvec.create () in
    Oracle.adjudicate ?rng oracle ~active:(rev_vec attempts) ~marks ~winners;
    Intvec.to_list winners
end

(* --------------------------------------------------- list slot semantics *)

(* The oracle rules on a deduplicated attempt list, and the SINR fold
   they use: interference summed in list order, Lossy drawing one loss
   per base-rule winner in winner order. *)
module Rules = struct
  let sinr phys ~active e =
    let interference =
      List.fold_left
        (fun acc e' ->
          if e' = e then acc
          else acc +. Physics.interference_from phys ~src:e' ~dst:e)
        0. active
    in
    let denom = interference +. (Physics.params phys).Params.noise in
    if denom <= 0. then infinity else Physics.signal phys e /. denom

  let feasible phys ~active e =
    sinr phys ~active e >= (Physics.params phys).Params.beta

  let rec adjudicate ?rng t attempts =
    match t with
    | Oracle.Wireline -> attempts
    | Oracle.Mac -> ( match attempts with [ e ] -> [ e ] | _ -> [])
    | Oracle.Sinr phys ->
      List.filter (fun e -> feasible phys ~active:attempts e) attempts
    | Oracle.Sinr_power_control (params, graph) ->
      Power_control.max_feasible_subset params graph attempts
    | Oracle.Conflict cg ->
      List.filter
        (fun e ->
          not (List.exists (fun e' -> Conflict_graph.conflict cg e e') attempts))
        attempts
    | Oracle.Lossy (base, loss) -> (
      if not (loss >= 0. && loss <= 1.) then
        invalid_arg "Oracle.adjudicate: Lossy probability outside [0, 1]";
      match rng with
      | None -> invalid_arg "Oracle.adjudicate: Lossy oracle needs an rng"
      | Some rng ->
        List.filter
          (fun _ -> not (Rng.bernoulli rng loss))
          (adjudicate ~rng base attempts))
end

(* Given a slot's attempts as (request index, link) pairs and the
   channel's successful links, flip the served flag of each winning
   request. A successful link always carried exactly one attempt. *)
let mark_successes ~served ~attempts ~succeeded =
  List.iter
    (fun link ->
      match List.filter (fun (_, l) -> l = link) attempts with
      | [ (idx, _) ] -> served.(idx) <- true
      | [] | _ :: _ -> assert false)
    succeeded

(* Indices still unserved, in increasing order. *)
let pending_indices served =
  let acc = ref [] in
  for idx = Array.length served - 1 downto 0 do
    if not served.(idx) then acc := idx :: !acc
  done;
  !acc

(* The list [Contention.run]: each pending request draws one Bernoulli
   per slot in ascending index order and the winners attempt in that
   order. [draws] counts the Bernoulli calls. *)
let contention ?(draws = ref 0) ~c ~adaptive ~channel ~rng ~measure ~requests
    ~budget () =
  let n = Array.length requests in
  let served = Array.make n false in
  let initial_i = Request.measure_of ~measure requests in
  let used = ref 0 in
  let pending = ref (List.init n Fun.id) in
  while !used < budget && !pending <> [] do
    let i_val =
      if adaptive then begin
        let s = Channel.scratch channel in
        Intvec.clear s.Scratch.pending;
        List.iter (Intvec.push s.Scratch.pending) !pending;
        Request.measure_of_live s ~measure requests s.Scratch.pending
      end
      else initial_i
    in
    let p = Float.min 1. (1. /. (c *. Float.max i_val 1.)) in
    let attempts =
      List.filter_map
        (fun idx ->
          incr draws;
          if Rng.bernoulli rng p then Some (idx, requests.(idx).Request.link)
          else None)
        !pending
    in
    let succeeded = Lists.step channel (List.map snd attempts) in
    mark_successes ~served ~attempts ~succeeded;
    (match succeeded with
    | [] -> ()
    | _ -> pending := List.filter (fun idx -> not served.(idx)) !pending);
    incr used
  done;
  { Algorithm.served; slots_used = !used }

(* The list [Delay_select.run]: full-scan interference per round, one
   uniform slot per pending request drawn in ascending index order,
   bucket lists built by prepending. *)
let delay_select ~c ~window_floor ~channel ~rng ~measure ~requests ~budget =
  let n = Array.length requests in
  let served = Array.make n false in
  let used = ref 0 in
  let continue = ref true in
  while !continue do
    match pending_indices served with
    | [] -> continue := false
    | pend ->
      if !used >= budget then continue := false
      else begin
        let reqs = Array.of_list (List.map (fun i -> requests.(i)) pend) in
        let i_val = Request.measure_of ~measure reqs in
        let window = Int.max window_floor (int_of_float (Float.ceil (c *. i_val))) in
        let window = Int.min window (budget - !used) in
        let buckets = Array.make window [] in
        List.iter
          (fun idx ->
            let d = Rng.int rng window in
            buckets.(d) <- idx :: buckets.(d))
          pend;
        for slot = 0 to window - 1 do
          let attempts =
            List.map (fun idx -> (idx, requests.(idx).Request.link)) buckets.(slot)
          in
          let succeeded = Lists.step channel (List.map snd attempts) in
          mark_successes ~served ~attempts ~succeeded;
          incr used
        done
      end
  done;
  { Algorithm.served; slots_used = !used }

(* The list max-weight greedy set: links by decreasing queue length
   ([List.sort] is stable, so ties keep ascending id); a link is
   accepted when the oracle grants the grown set, probed as the
   candidate followed by the accepted links newest first. The result is
   newest first. *)
let greedy_set ?rng oracle weights =
  let links =
    List.filter (fun e -> weights.(e) > 0)
      (List.init (Array.length weights) Fun.id)
  in
  let by_weight =
    List.sort (fun a b -> compare weights.(b) weights.(a)) links
  in
  let feasible set =
    let granted = Rules.adjudicate ?rng oracle set in
    List.length granted = List.length set
  in
  List.fold_left
    (fun chosen e -> if feasible (e :: chosen) then e :: chosen else chosen)
    [] by_weight
