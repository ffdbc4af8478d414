(** Per-link load vectors [R] and their interference measure.

    [R(e)] counts the packets that must cross link [e]; combined with a
    {!Measure.t} it yields [I = ||W·R||_inf], the quantity every schedule
    length and injection bound in the paper is stated in. *)

(** [zero m] is the all-zero load over [m] links. *)
val zero : int -> float array

(** [of_link_counts m assocs] sums multiplicities per link id. *)
val of_link_counts : int -> (int * int) list -> float array

(** [of_paths m paths] counts, for each link, how many of the given paths
    cross it (a path crossing a link twice counts twice). *)
val of_paths : int -> Dps_network.Path.t list -> float array

(** [add a b] is the pointwise sum (fresh array). *)
val add : float array -> float array -> float array

(** [scale c a] is the pointwise scaling (fresh array). *)
val scale : float -> float array -> float array
