(** The trivial single-hop algorithm for packet-routing networks
    (Section 7: identity measure, wireline oracle).

    Requests are queued per link; in slot [k] every link transmits the
    [k]-th packet of its queue. Under the wireline oracle every attempt
    succeeds, so the schedule length is exactly the congestion
    [max_e R(e) = I]. *)

(** The algorithm; its duration estimate is [min (ceil I) n]. *)
val algorithm : Algorithm.t
