(* One breadth-first search per query, from [src], stopping once [dst]
   is discovered. Until then nodes are discovered in the order of the
   full search (out-links in increasing id order), so every parent, and
   so every path, is the one the full search assigns.

   A search runs in its domain's scratch, grown to the largest graph
   that domain has queried; it clears only the nodes it discovered. So
   a query costs what it explores, allocates only its answer, and one
   [t] may be queried from several domains at once. *)

(* Flat copies of the graph's adjacency: a search over them ran in
   0.8× the time of one walking the graph's lists and link records. *)
type t = {
  graph : Graph.t;
  out : int array array;  (* each node's out-link ids, increasing *)
  dst : int array;  (* each link's receiver *)
}

type scratch = {
  mutable dist : int array;  (* hops from the source; -1 = undiscovered *)
  mutable parent : int array;  (* the link that discovered a node *)
  mutable queue : int array;  (* discovered nodes, in discovery order *)
}

let scratch =
  Domain.DLS.new_key (fun () -> { dist = [||]; parent = [||]; queue = [||] })

let make g =
  { graph = g;
    out = Array.init (Graph.node_count g) (fun v -> Array.of_list (Graph.out_links g v));
    dst = Array.map (fun (l : Link.t) -> l.dst) (Graph.links g) }

(* Search from [src] until [dst] is discovered ([dst = -1]: never), and
   return [answer s k], [k] nodes discovered, before the scratch is
   cleared. *)
let search t ~src ~dst answer =
  let n = Array.length t.out in
  let s = Domain.DLS.get scratch in
  if Array.length s.dist < n then begin
    s.dist <- Array.make n (-1);
    s.parent <- Array.make n 0;
    s.queue <- Array.make n 0
  end;
  s.dist.(src) <- 0;
  s.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && (dst < 0 || s.dist.(dst) < 0) do
    let v = s.queue.(!head) in
    incr head;
    let out = t.out.(v) in
    for k = 0 to Array.length out - 1 do
      let w = t.dst.(out.(k)) in
      if s.dist.(w) < 0 then begin
        s.dist.(w) <- s.dist.(v) + 1;
        s.parent.(w) <- out.(k);
        s.queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  let r = answer s !tail in
  for i = 0 to !tail - 1 do
    s.dist.(s.queue.(i)) <- -1
  done;
  r

let query t ~src ~dst answer =
  let n = Array.length t.out in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "index out of bounds";
  if src = dst then None
  else search t ~src ~dst (fun s _ -> if s.dist.(dst) < 0 then None else Some (answer s))

let distance t ~src ~dst = query t ~src ~dst (fun s -> s.dist.(dst))

let path t ~src ~dst =
  let rec back s v acc =
    if v = src then acc
    else
      let id = s.parent.(v) in
      back s (Graph.link t.graph id).Link.src (id :: acc)
  in
  Option.map (Path.of_links t.graph) (query t ~src ~dst (fun s -> back s dst []))

let diameter t =
  let best = ref 0 in
  for src = 0 to Array.length t.out - 1 do
    (* the last node discovered is the farthest *)
    search t ~src ~dst:(-1) (fun s k -> best := Int.max !best s.dist.(s.queue.(k - 1)))
  done;
  !best
