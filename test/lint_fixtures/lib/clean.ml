(* Fixture: typed comparisons only; must produce no findings. *)

type t = { x : int; y : int }

let equal a b = Int.equal a.x b.x && Int.equal a.y b.y

let compare a b =
  match Int.compare a.x b.x with 0 -> Int.compare a.y b.y | c -> c

module Point = struct
  type t = { x : int; y : int }

  let origin = { x = 0; y = 0 }
end
