(* Preallocated structure-of-arrays packet storage.

   Packets are int-array fields indexed by a packet handle (an int),
   plus a free list threaded through [next] so delivered and shed
   packets are recycled in place: no record per arrival and no cons cell
   per queue operation. Steady state allocates nothing: the arrays
   double on exhaustion and then plateau at the peak in-flight
   population.

   The [next] field is dual-use — free-list chain for free slots, and
   intrusive FIFO chain while a packet waits in a per-link queue (see
   Protocol and Max_weight). A packet is in at most one queue at a time,
   so one link field suffices. [delivered_slot] uses -1 for "in flight";
   test/test_arena.ml holds the fields to a plain record model. *)

module Path = Dps_network.Path

type t = {
  mutable path : Path.t array;
  mutable id : int array;
  mutable injected_slot : int array;
  mutable hop : int array;
  mutable delivered_slot : int array;  (* -1 = in flight *)
  mutable release_frame : int array;
  mutable failed : bool array;
  mutable next : int array;  (* free-list / failed-FIFO chain; -1 = end *)
  mutable capacity : int;
  mutable free_head : int;  (* head of the free list; -1 = full *)
  mutable live : int;  (* allocated slots, for diagnostics *)
}

let nil = -1

let dummy_path = Path.placeholder

let chain_free t lo hi =
  (* Thread slots [lo, hi) onto the free list in ascending order. *)
  for i = lo to hi - 2 do
    t.next.(i) <- i + 1
  done;
  t.next.(hi - 1) <- t.free_head;
  t.free_head <- lo

let create ?(capacity = 64) () =
  let capacity = Int.max 1 capacity in
  let t =
    { path = Array.make capacity dummy_path;
      id = Array.make capacity 0;
      injected_slot = Array.make capacity 0;
      hop = Array.make capacity 0;
      delivered_slot = Array.make capacity nil;
      release_frame = Array.make capacity 0;
      failed = Array.make capacity false;
      next = Array.make capacity nil;
      capacity;
      free_head = nil;
      live = 0 }
  in
  chain_free t 0 capacity;
  t

let capacity t = t.capacity
let live t = t.live

let grow t =
  let old = t.capacity in
  let cap = 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.path <- extend t.path dummy_path;
  t.id <- extend t.id 0;
  t.injected_slot <- extend t.injected_slot 0;
  t.hop <- extend t.hop 0;
  t.delivered_slot <- extend t.delivered_slot nil;
  t.release_frame <- extend t.release_frame 0;
  t.failed <- extend t.failed false;
  t.next <- extend t.next nil;
  t.capacity <- cap;
  chain_free t old cap

let alloc t ~id ~path ~injected_slot =
  if t.free_head = nil then grow t;
  let p = t.free_head in
  t.free_head <- t.next.(p);
  t.live <- t.live + 1;
  t.path.(p) <- path;
  t.id.(p) <- id;
  t.injected_slot.(p) <- injected_slot;
  t.hop.(p) <- 0;
  t.delivered_slot.(p) <- nil;
  t.release_frame.(p) <- 0;
  t.failed.(p) <- false;
  t.next.(p) <- nil;
  p

let free t p =
  t.path.(p) <- dummy_path;  (* drop the path reference for the GC *)
  t.next.(p) <- t.free_head;
  t.free_head <- p;
  t.live <- t.live - 1

(* --- field accessors --- *)

let id t p = t.id.(p)
let path t p = t.path.(p)
let injected_slot t p = t.injected_slot.(p)
let hop t p = t.hop.(p)
let failed t p = t.failed.(p)
let set_failed t p = t.failed.(p) <- true
let release_frame t p = t.release_frame.(p)
let set_release_frame t p f = t.release_frame.(p) <- f
let delivered_slot t p = t.delivered_slot.(p)

let delivered t p = t.hop.(p) >= Path.length t.path.(p)

let next_link t p =
  assert (not (delivered t p));
  Path.hop t.path.(p) t.hop.(p)

let remaining_hops t p = Path.length t.path.(p) - t.hop.(p)

let advance t p ~slot =
  assert (not (delivered t p));
  t.hop.(p) <- t.hop.(p) + 1;
  if delivered t p then t.delivered_slot.(p) <- slot

let latency t p =
  if t.delivered_slot.(p) = nil then nil
  else t.delivered_slot.(p) - t.injected_slot.(p)

(* --- intrusive chain field (free slots and failed FIFOs) --- *)

let next t p = t.next.(p)
let set_next t p n = t.next.(p) <- n
