(** Power assignments (Section 6).

    A power assignment fixes, per link, the transmission power as a function
    of the link's length [d]:

    - {!uniform}: constant power — the "fixed uniform powers" setting;
    - {!linear}: [p = c · d^alpha] — every link's received signal strength is
      the same constant [c] (Corollary 12);
    - {!square_root}: [p = c · d^(alpha/2)] — the oblivious mean-power scheme
      of Fanghänel et al. / Halldórsson;
    - {!custom}: any length-dependent assignment. *)

type t

(** Display name of the scheme. *)
val name : t -> string

(** [power t ~length ~alpha] is the transmission power of a link of the given
    length under path-loss exponent [alpha]. *)
val power : t -> length:float -> alpha:float -> float

(** [uniform p] — every link transmits at power [p]. *)
val uniform : float -> t

(** [linear c] — [p = c · d^alpha]: every link's received signal
    strength is [c]. *)
val linear : float -> t

(** [square_root c] — [p = c · d^(alpha/2)], the mean-power scheme. *)
val square_root : float -> t

(** [custom ~name f] — power [f ~length ~alpha], displayed as [name]. *)
val custom : name:string -> (length:float -> alpha:float -> float) -> t

(** [is_monotone_sublinear t ~alpha ~lengths] checks the Section 6.1
    requirement on the given sample of link lengths: [d ≤ d'] implies both
    [p(d) ≤ p(d')] (monotone) and [p(d)/d^alpha ≥ p(d')/d'^alpha]
    (sublinear). *)
val is_monotone_sublinear : t -> alpha:float -> lengths:float array -> bool
