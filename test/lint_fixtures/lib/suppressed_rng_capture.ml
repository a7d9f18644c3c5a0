(* Fixture: a captured stream, with a suppression. *)

let jitter pool rng xs =
  (* lint: allow rng-capture — fixture: a suppressed capture *)
  Pool.map_array pool (fun x -> x + Rng.int rng 3) xs
