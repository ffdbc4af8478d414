(** Growable int vector: the reusable, allocation-free replacement for
    the per-slot int lists of the hot loop. Create once, [clear] and
    refill each slot; steady-state pushes allocate nothing. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh vector of length 0. [capacity] (default 16) pre-sizes the
    backing array. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Reset length to 0 without shrinking the backing array. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val push : t -> int -> unit
(** Append, doubling the backing array when full (amortised O(1)). *)

val pop : t -> int
(** Remove and return the last element. Raises [Invalid_argument] when
    empty. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] elements. Raises
    [Invalid_argument] unless [0 <= n <= length t]. *)

val ensure_capacity : t -> int -> unit

val sort : t -> unit
(** Sort the live elements ascending, in place, without allocating. *)

val iter : (int -> unit) -> t -> unit
val iter_rev : (int -> unit) -> t -> unit
val exists : (int -> bool) -> t -> bool
val to_list : t -> int list
val of_list : int list -> t

val unsafe_data : t -> int array
(** Backing array; indices [0 .. length t - 1] are live. Invalidated by
    the next growth. *)
