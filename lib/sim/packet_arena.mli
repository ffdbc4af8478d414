(** Preallocated structure-of-arrays packet storage.

    A packet travelling through the network is an integer handle into
    parallel arrays: its fixed path, its progress along it, and the
    bookkeeping the dynamic protocol and the latency statistics need.
    Freed handles are recycled through an internal free list, so the
    steady state of the protocol's hot loop allocates nothing (the
    arrays double on exhaustion, then plateau at the peak in-flight
    population). Slot numbers use -1 for "not yet": [delivered_slot]
    and [latency] read -1 while the packet is in flight.

    The [next] chain field is dual-use: free-list link for unoccupied
    slots, intrusive FIFO link while a packet waits in a per-link queue
    (the protocol's failed buffers, the max-weight baseline's link
    queues). A packet is in at most one queue at a time. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena (default initial capacity 64). *)

val capacity : t -> int
(** Number of handles the arrays hold before the next doubling. *)

val live : t -> int
(** Number of currently allocated handles. *)

val alloc : t -> id:int -> path:Dps_network.Path.t -> injected_slot:int -> int
(** Allocate a handle with [hop = 0], in flight, not failed,
    [release_frame = 0], [next = -1]. Grows (doubling) when full. *)

val free : t -> int -> unit
(** Recycle a handle. The caller must not use it afterwards. *)

(** {2 Field accessors} *)

val id : t -> int -> int
(** The caller's packet id, given at {!alloc}. *)

val path : t -> int -> Dps_network.Path.t
(** The packet's fixed route. *)

val injected_slot : t -> int -> int
(** Slot in which the packet entered the system. *)

val hop : t -> int -> int
(** Index of the next hop to cross; [Path.length] once delivered. *)

val failed : t -> int -> bool
(** Has the packet ever failed a phase-1 execution? *)

val set_failed : t -> int -> unit
(** Mark the packet failed; the flag sticks until the handle is freed. *)

val release_frame : t -> int -> int
(** First frame the packet participates in (the adversarial wrapper's
    random initial delay). *)

val set_release_frame : t -> int -> int -> unit
(** Set {!release_frame}. *)

val delivered_slot : t -> int -> int
(** Slot of delivery, or -1 while in flight. *)

val delivered : t -> int -> bool
(** Has the packet crossed its last hop? *)

val next_link : t -> int -> int
(** Link id of the next hop. Requires the packet is not yet delivered. *)

val remaining_hops : t -> int -> int
(** Number of hops still to cross. *)

val advance : t -> int -> slot:int -> unit
(** Record a successful hop; stamps [delivered_slot] on the last one. *)

val latency : t -> int -> int
(** Slots from injection to delivery; -1 while in flight. *)

(** {2 Intrusive chain (per-link FIFOs)} *)

val next : t -> int -> int
(** The handle after this one in its queue, or -1 at the tail. *)

val set_next : t -> int -> int -> unit
(** Link a handle to its successor (-1 ends the queue). *)
