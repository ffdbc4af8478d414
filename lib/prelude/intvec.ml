(* Growable int vector backed by a flat array.

   The building block of the zero-allocation hot loop: every per-slot
   collection that used to be an OCaml list (active links, attempts,
   live packets, clean-up offers) becomes an [Intvec.t] that is created
   once and reused, so steady-state pushes cost one array store and no
   minor words. Growth doubles the backing array — amortised O(1), and
   after warm-up the capacity plateaus and the vector never allocates
   again.

   Not thread-safe; each domain owns its vectors (the Par fan-out gives
   every replica its own channel/protocol and hence its own scratch). *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (Int.max 1 capacity) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let clear t = t.len <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set";
  Array.unsafe_set t.data i x

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  if t.len = Array.length t.data then ensure_capacity t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Intvec.pop";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Intvec.truncate";
  t.len <- n

(* In-place heapsort: O(n log n) and no allocation, unlike [Array.sort]
   (whose sift-down raises an exception per call). [sift] is top level
   so no closure is built per sort. *)
let rec sift (a : int array) root stop =
  let child = (2 * root) + 1 in
  if child < stop then begin
    let child =
      if child + 1 < stop && Array.unsafe_get a (child + 1) > Array.unsafe_get a child
      then child + 1
      else child
    in
    let r = Array.unsafe_get a root and c = Array.unsafe_get a child in
    if c > r then begin
      Array.unsafe_set a root c;
      Array.unsafe_set a child r;
      sift a child stop
    end
  end

let sort t =
  let a = t.data in
  for root = (t.len / 2) - 1 downto 0 do
    sift a root t.len
  done;
  for stop = t.len - 1 downto 1 do
    let top = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a stop);
    Array.unsafe_set a stop top;
    sift a 0 stop
  done

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iter_rev f t =
  for i = t.len - 1 downto 0 do
    f (Array.unsafe_get t.data i)
  done

let exists p t =
  let rec go i = i < t.len && (p (Array.unsafe_get t.data i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
  go (t.len - 1) []

let of_list l =
  let t = create ~capacity:(Int.max 1 (List.length l)) () in
  List.iter (push t) l;
  t

(* Direct access to the backing array for hot loops: indices
   [0 .. length t - 1] are live, the rest is garbage. The array is
   invalidated by the next growth. *)
let unsafe_data t = t.data
