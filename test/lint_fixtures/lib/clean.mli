(* Fixture: a compliant interface — abstract t with typed comparisons. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

(* A record shows its fields, so it needs no typed equal. *)
module Point : sig
  type t = { x : int; y : int }

  val origin : t
end
