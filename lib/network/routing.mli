(** Shortest-path routing.

    Produces the fixed per-packet paths the injection models need
    ("fixed for each packet, e.g., by routing tables"). *)

type t

(** [make g] — O(|V| + |E|): no table. Each query runs its own breadth-first
    search (hop metric) from [src], stopping once [dst] is discovered,
    and allocates only its answer. A [t] may be queried from several
    domains at once: each searches in its own domain-local scratch,
    three int arrays as long as the largest graph it has queried. *)
val make : Graph.t -> t

(** [path t ~src ~dst] is a shortest path from [src] to [dst], or [None] if
    [dst] is unreachable or [src = dst]. Deterministic: ties are broken by
    smallest link id. *)
val path : t -> src:int -> dst:int -> Path.t option

(** [distance t ~src ~dst] is the hop count of the shortest path, or [None]. *)
val distance : t -> src:int -> dst:int -> int option

(** [diameter t] is the largest finite hop distance between distinct nodes;
    [0] for graphs with no reachable pairs. One search per node:
    O(|V|·(|V| + |E|)). *)
val diameter : t -> int
