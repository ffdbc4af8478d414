(* Packet_arena: the preallocated structure-of-arrays packet store must
   behave exactly like a plain packet record — and its free list must
   recycle handles without ever aliasing a live one. *)

module Rng = Dps_prelude.Rng
module Path = Dps_network.Path
module Topology = Dps_network.Topology
module Routing = Dps_network.Routing
module Arena = Dps_sim.Packet_arena

(* The record model: a packet as one mutable record, [None] standing
   for the arena's -1 slot numbers. *)
module Packet = struct
  type t = {
    id : int;
    path : Path.t;
    injected_slot : int;
    mutable hop : int;
    mutable delivered_slot : int option;
    mutable failed : bool;
    mutable release_frame : int;
  }

  let make ~id ~path ~injected_slot =
    { id; path; injected_slot; hop = 0; delivered_slot = None; failed = false;
      release_frame = 0 }

  let delivered t = t.hop >= Path.length t.path
  let next_link t = Path.hop t.path t.hop
  let remaining_hops t = Path.length t.path - t.hop

  let advance t ~slot =
    t.hop <- t.hop + 1;
    if delivered t then t.delivered_slot <- Some slot

  let latency t = Option.map (fun s -> s - t.injected_slot) t.delivered_slot
end

(* A pool of distinct valid paths (1..5 hops on a line). *)
let path_pool =
  let g = Topology.line ~nodes:7 ~spacing:1. in
  let r = Routing.make g in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if dst > src then Routing.path r ~src ~dst else None)
        [ 1; 2; 3; 4; 5; 6 ])
    [ 0; 1; 2; 3 ]
  |> Array.of_list

(* ------------------------------------------------------- unit behaviour *)

let test_lifecycle () =
  let a = Arena.create () in
  let path = path_pool.(Array.length path_pool - 1) in
  let d = Path.length path in
  let p = Arena.alloc a ~id:7 ~path ~injected_slot:10 in
  Alcotest.(check int) "id" 7 (Arena.id a p);
  Alcotest.(check int) "injected_slot" 10 (Arena.injected_slot a p);
  Alcotest.(check int) "remaining" d (Arena.remaining_hops a p);
  Alcotest.(check bool) "not delivered" false (Arena.delivered a p);
  Alcotest.(check int) "no latency yet" (-1) (Arena.latency a p);
  Alcotest.(check int) "first hop" (Path.hop path 0) (Arena.next_link a p);
  Arena.advance a p ~slot:20;
  Alcotest.(check int) "second hop" (Path.hop path 1) (Arena.next_link a p);
  for i = 1 to d - 1 do
    Arena.advance a p ~slot:(20 + (10 * i))
  done;
  Alcotest.(check bool) "delivered" true (Arena.delivered a p);
  Alcotest.(check int) "latency" ((20 + (10 * (d - 1))) - 10) (Arena.latency a p);
  Alcotest.(check int) "delivered_slot" (20 + (10 * (d - 1)))
    (Arena.delivered_slot a p)

let test_flags_and_chain () =
  let a = Arena.create () in
  let p = Arena.alloc a ~id:0 ~path:path_pool.(0) ~injected_slot:0 in
  Alcotest.(check bool) "fresh not failed" false (Arena.failed a p);
  Arena.set_failed a p;
  Alcotest.(check bool) "failed sticks" true (Arena.failed a p);
  Alcotest.(check int) "fresh release_frame" 0 (Arena.release_frame a p);
  Arena.set_release_frame a p 9;
  Alcotest.(check int) "release_frame sticks" 9 (Arena.release_frame a p);
  Alcotest.(check int) "fresh chain nil" (-1) (Arena.next a p);
  Arena.set_next a p 42;
  Alcotest.(check int) "chain sticks" 42 (Arena.next a p);
  (* Recycled slots come back with every field re-initialised. *)
  Arena.free a p;
  let q = Arena.alloc a ~id:1 ~path:path_pool.(1) ~injected_slot:5 in
  Alcotest.(check int) "handle recycled" p q;
  Alcotest.(check bool) "recycled not failed" false (Arena.failed a q);
  Alcotest.(check int) "recycled release_frame" 0 (Arena.release_frame a q);
  Alcotest.(check int) "recycled chain nil" (-1) (Arena.next a q);
  Alcotest.(check int) "recycled hop reset" 0 (Arena.hop a q)

let test_growth () =
  let a = Arena.create ~capacity:1 () in
  let handles =
    Array.init 100 (fun i ->
        Arena.alloc a ~id:i ~path:path_pool.(i mod Array.length path_pool)
          ~injected_slot:i)
  in
  Alcotest.(check int) "live count" 100 (Arena.live a);
  Alcotest.(check bool) "capacity grew" true (Arena.capacity a >= 100);
  let distinct = List.sort_uniq compare (Array.to_list handles) in
  Alcotest.(check int) "all handles distinct" 100 (List.length distinct);
  Array.iteri
    (fun i p -> Alcotest.(check int) "field survives growth" i (Arena.id a p))
    handles;
  let cap = Arena.capacity a in
  Array.iter (fun p -> Arena.free a p) handles;
  Alcotest.(check int) "live drains" 0 (Arena.live a);
  let again =
    Array.init 100 (fun i ->
        Arena.alloc a ~id:i ~path:path_pool.(0) ~injected_slot:0)
  in
  Alcotest.(check int) "capacity plateaus" cap (Arena.capacity a);
  let distinct = List.sort_uniq compare (Array.to_list again) in
  Alcotest.(check int) "recycled handles distinct" 100 (List.length distinct)

(* ------------------------------------------------------------ properties *)

(* Interpreter for random op sequences, run simultaneously against the
   arena and a reference table of Packet records. After every op, each
   live handle's observable fields must agree with its record twin, and
   a fresh allocation must never alias a live handle. *)

type model = { handle : int; pkt : Packet.t }

let check_equal a { handle = p; pkt } =
  Arena.id a p = pkt.Packet.id
  && Arena.path a p == pkt.Packet.path
  && Arena.injected_slot a p = pkt.Packet.injected_slot
  && Arena.hop a p = pkt.Packet.hop
  && Arena.failed a p = pkt.Packet.failed
  && Arena.release_frame a p = pkt.Packet.release_frame
  && Arena.delivered a p = Packet.delivered pkt
  && Arena.remaining_hops a p = Packet.remaining_hops pkt
  && (Arena.delivered_slot a p =
      match pkt.Packet.delivered_slot with None -> -1 | Some s -> s)
  && (Arena.latency a p =
      match Packet.latency pkt with None -> -1 | Some l -> l)
  && (Packet.delivered pkt || Arena.next_link a p = Packet.next_link pkt)

let prop_arena_matches_packet =
  QCheck.Test.make ~count:200 ~name:"arena ops mirror Packet records"
    QCheck.(list (pair (int_bound 5) small_nat))
    (fun ops ->
      let a = Arena.create ~capacity:2 () in
      let live = ref [] in
      let next_id = ref 0 in
      let slot = ref 0 in
      let pick r = List.nth !live (r mod List.length !live) in
      List.iter
        (fun (op, r) ->
          incr slot;
          match op with
          | 0 | 1 ->
            (* alloc; the new handle must not alias any live one *)
            let path = path_pool.(r mod Array.length path_pool) in
            let id = !next_id in
            incr next_id;
            let p = Arena.alloc a ~id ~path ~injected_slot:!slot in
            if List.exists (fun m -> m.handle = p) !live then
              QCheck.Test.fail_report "alloc returned a live handle";
            live := { handle = p; pkt = Packet.make ~id ~path ~injected_slot:!slot } :: !live
          | 2 when !live <> [] ->
            (* free a random live handle *)
            let m = pick r in
            Arena.free a m.handle;
            live := List.filter (fun m' -> m' != m) !live
          | 3 when !live <> [] ->
            let m = pick r in
            if not (Packet.delivered m.pkt) then begin
              Arena.advance a m.handle ~slot:!slot;
              Packet.advance m.pkt ~slot:!slot
            end
          | 4 when !live <> [] ->
            let m = pick r in
            Arena.set_failed a m.handle;
            m.pkt.Packet.failed <- true
          | 5 when !live <> [] ->
            let m = pick r in
            Arena.set_release_frame a m.handle r;
            m.pkt.Packet.release_frame <- r
          | _ -> ())
        ops;
      if Arena.live a <> List.length !live then
        QCheck.Test.fail_report "live count drifted";
      List.for_all (check_equal a) !live)

let prop_free_list_never_aliases =
  QCheck.Test.make ~count:100 ~name:"alloc/free churn keeps handles disjoint"
    QCheck.(small_nat)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 1) () in
      let a = Arena.create ~capacity:1 () in
      let live = Hashtbl.create 16 in
      for i = 0 to 499 do
        if Rng.bool rng && Hashtbl.length live > 0 then begin
          (* free a pseudo-random live handle *)
          let keys = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
          let p = List.nth keys (Rng.int rng (List.length keys)) in
          Arena.free a p;
          Hashtbl.remove live p
        end
        else begin
          let p = Arena.alloc a ~id:i ~path:path_pool.(0) ~injected_slot:i in
          if Hashtbl.mem live p then
            QCheck.Test.fail_report "alloc aliased a live handle";
          Hashtbl.add live p ()
        end
      done;
      Arena.live a = Hashtbl.length live)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "packet_arena"
    [ ( "unit",
        [ quick "lifecycle mirrors Packet" test_lifecycle;
          quick "flags, chain, recycling" test_flags_and_chain;
          quick "growth and plateau" test_growth ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_arena_matches_packet; prop_free_list_never_aliases ] ) ]
