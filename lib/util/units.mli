(** Human-readable formatting of byte counts and durations, used by the
    cost model and the benchmark reports. *)

val bytes_to_string : float -> string
