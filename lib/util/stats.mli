(** Small descriptive-statistics helpers used by the simulators and the
    benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val median : float array -> float
(** The 50th percentile, interpolating linearly between the two middle
    order statistics of an even-length array; [Float.compare] sorts a
    NaN below every number. Raises [Invalid_argument] on an empty
    array. *)

val minimum : float array -> float
