(* The same uncalled export as [Fire_unused_export.uncalled], silenced
   by the shared comment-suppression machinery. *)

(* lint: allow unused-export — fixture: deliberately uncalled, proves
   the suppression machinery covers the rule *)
val uncalled : int -> int
