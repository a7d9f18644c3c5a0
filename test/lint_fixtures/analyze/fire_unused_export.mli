(* unused-export fires: [uncalled] has no caller outside this module.
   [called] is named by [Suppressed_unused_export], so it must stay
   silent — proof that a sibling's reference counts. *)

val called : int -> int

val uncalled : int -> int
