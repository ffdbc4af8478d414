module Graph = Dps_network.Graph
module Link = Dps_network.Link
module Point = Dps_geometry.Point
module Intvec = Dps_prelude.Intvec

(* Structure of arrays: the adjudication loop reads a handful of floats
   per link pair straight from flat float arrays, with no pointer chase
   through per-link records or boxed points. *)
type t = {
  prm : Params.t;
  graph : Graph.t;
  sx : float array;  (* sender positions *)
  sy : float array;
  rx : float array;  (* receiver positions *)
  ry : float array;
  len : float array;
  pow : float array;
  sig_strength : float array;
}

let make prm power graph =
  let links = Graph.links graph in
  let m = Array.length links in
  let t =
    { prm;
      graph;
      sx = Array.make m 0.;
      sy = Array.make m 0.;
      rx = Array.make m 0.;
      ry = Array.make m 0.;
      len = Array.make m 0.;
      pow = Array.make m 0.;
      sig_strength = Array.make m 0. }
  in
  Array.iteri
    (fun e (l : Link.t) ->
      let sender = Graph.position graph l.src in
      let receiver = Graph.position graph l.dst in
      let len = Point.distance sender receiver in
      if len <= 0. then invalid_arg "Physics.make: zero-length link";
      let pow = Power.power power ~length:len ~alpha:prm.Params.alpha in
      t.sx.(e) <- sender.Point.x;
      t.sy.(e) <- sender.Point.y;
      t.rx.(e) <- receiver.Point.x;
      t.ry.(e) <- receiver.Point.y;
      t.len.(e) <- len;
      t.pow.(e) <- pow;
      t.sig_strength.(e) <- pow /. (len ** prm.Params.alpha))
    links;
  t

let params t = t.prm
let graph t = t.graph
let size t = Array.length t.len
let length t e = t.len.(e)
let power_of t e = t.pow.(e)
let signal t e = t.sig_strength.(e)

(* [Point.distance (sender src) (receiver dst)], operation for operation. *)
let[@inline] interference_from t ~src ~dst =
  assert (src <> dst);
  let dx = t.sx.(src) -. t.rx.(dst) and dy = t.sy.(src) -. t.ry.(dst) in
  let d = sqrt ((dx *. dx) +. (dy *. dy)) in
  if d <= 0. then infinity else t.pow.(src) /. (d ** t.prm.Params.alpha)

let[@inline] ratio t e interference =
  let denom = interference +. t.prm.Params.noise in
  if denom <= 0. then infinity else t.sig_strength.(e) /. denom

let[@inline] sinr t ~active e =
  let interference = ref 0. in
  for i = Intvec.length active - 1 downto 0 do
    let e' = Intvec.get active i in
    if e' <> e then
      interference := !interference +. interference_from t ~src:e' ~dst:e
  done;
  ratio t e !interference

let feasible t ~active e = sinr t ~active e >= t.prm.Params.beta

(* [sinr] sums from the last element down, so the reversed list sums in
   list order. *)
let feasible_set t links =
  let active = Intvec.of_list (List.rev links) in
  List.for_all (feasible t ~active) links

let length_ratio t =
  let lo = ref infinity and hi = ref 0. in
  Array.iter
    (fun len ->
      if len < !lo then lo := len;
      if len > !hi then hi := len)
    t.len;
  if !lo = infinity then 1. else !hi /. !lo
