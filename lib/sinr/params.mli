(** Physical parameters of the SINR model.

    A transmission at power [p] is received at distance [d] with strength
    [p / d^alpha]; it succeeds iff its strength is at least [beta] times the
    sum of all interfering strengths plus the ambient noise [nu]. *)

type t = { alpha : float; beta : float; noise : float }

(** [make ?alpha ?beta ?noise ()] — defaults: path-loss exponent
    [alpha = 3.], SINR threshold [beta = 1.], ambient noise [noise = 0.].
    Requires [alpha > 0.], [beta > 0.], [noise >= 0.]. *)
val make : ?alpha:float -> ?beta:float -> ?noise:float -> unit -> t

(** [pp] prints the three parameters. *)
val pp : Format.formatter -> t -> unit
