(* Fixture: metric, span and instant names outside the Obs.Names registry. *)

let c = Obs.Metrics.counter "adhoc.counter"
let g = Mycelium_obs.Obs.Metrics.gauge "adhoc.gauge"
let h = Obs.Metrics.histogram "adhoc.histogram"
let s = Obs.span "adhoc.span" (fun () -> ())
let i () = Obs.instant ~attrs:[] "adhoc.instant"
let sampled = Obs.sampled_span sampler "adhoc.sampled" (fun () -> ())
let ok = Obs.Metrics.counter Obs.Names.bgv_encrypts
let ok_span = Obs.span Obs.Names.runtime_init @@ fun () -> ()
let ok_sampled = Obs.sampled_span sampler Obs.Names.rq_mul (fun () -> ())
