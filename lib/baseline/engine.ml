module Obs = Mycelium_obs.Obs
module Semantics = Mycelium_query.Semantics

let run info graph =
  Semantics.decode info (Array.map float_of_int (Semantics.global_histogram info graph))

let time_plaintext_query info graph =
  let t0 = Obs.now_s () in
  let (_ : Semantics.result) = run info graph in
  Obs.now_s () -. t0
