(* Fixture: metric names registered outside the Obs.Names registry. *)

let c = Obs.Metrics.counter "adhoc.counter"
let g = Mycelium_obs.Obs.Metrics.gauge "adhoc.gauge"
let h = Obs.Metrics.histogram "adhoc.histogram"
let ok = Obs.Metrics.counter Obs.Names.bgv_encrypts
