(* The reference walk behind unused-export: a module alias and a local
   module alias both resolve to the canonical path of the value they
   reach, neither names anything by itself, and the standard library is
   left out.  The suite asserts this unit's reference set exactly. *)

module F = Fire_unused_export

let via_alias x = F.called x

let via_local xs =
  let module G = Fire_unused_export in
  G.called (List.length xs)
