(** The attribute schema visible to Mycelium queries (§4): per-vertex
    private data ([self] / [dest] column groups) and per-edge private
    data ([edge]). The fields are the union of what queries Q1–Q10
    touch: infection status and time, age, and contact context. *)

type location = Household | Subway | Workplace | SocialVenue | Other

type setting = Family | Social | Work
(** Exposure type for Q7's GROUP BY edge.setting. *)

type vertex_data = {
  infected : bool;  (** self.inf / dest.inf *)
  t_inf : int option;  (** day of diagnosis; None if never infected *)
  age : int;  (** years, 0..99 *)
  household : int;  (** household id, for isHousehold-style predicates *)
}

type edge_data = {
  duration_min : int;  (** cumulative proximity time (Q2) *)
  contacts : int;  (** number of distinct contact events (Q3) *)
  last_contact : int;  (** day of last contact (Q2's window anchor) *)
  location : location;  (** where contact happened (Q4, Q8) *)
  setting : setting;  (** exposure type (Q7) *)
}

val age_group : int -> int
(** Decade bucket 0..9, the paper's GROUP BY self.age granularity. *)

val age_groups : int
(** Number of decade buckets (10). *)

val stage_of_delay : int -> int
(** [stage_of_delay (dest.tInf - self.tInf)]: 0 = incubation period
    (2–5 days), 1 = illness period (> 5 days) — Q10's [stage()]. *)

val stages : int

val on_subway : location -> bool
val is_household : location -> bool

val t_inf_days : int
(** Upper bound on the discrete diagnosis-day range used by
    cross-column comparisons (14, per the 14-day windows in Q1/Q2). *)
