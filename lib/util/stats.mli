(** Small descriptive-statistics helpers used by the simulators and the
    benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays of fewer than two elements. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

val minimum : float array -> float
