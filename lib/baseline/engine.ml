module Semantics = Mycelium_query.Semantics

let run info graph =
  Semantics.decode info (Array.map float_of_int (Semantics.global_histogram info graph))

let time_plaintext_query info graph =
  (* lint: allow determinism — wall-clock measurement is this function's
     purpose; the timing never feeds back into query results *)
  let t0 = Unix.gettimeofday () in
  let (_ : Semantics.result) = run info graph in
  (* lint: allow determinism — end of the measured interval *)
  Unix.gettimeofday () -. t0
