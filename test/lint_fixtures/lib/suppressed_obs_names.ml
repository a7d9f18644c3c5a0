(* Fixture: ad-hoc names, consciously suppressed. *)

let c =
  (* lint: allow obs-guard — fixture: experiment-local scratch metric *)
  Obs.Metrics.counter "scratch.counter"

let s =
  (* lint: allow obs-guard — fixture: experiment-local scratch span *)
  Obs.span "scratch.span" (fun () -> ())

let i () =
  (* lint: allow obs-guard — fixture: experiment-local scratch instant *)
  Obs.instant "scratch.instant"

let sampled =
  (* lint: allow obs-guard — fixture: experiment-local scratch sampled span *)
  Obs.sampled_span sampler "scratch.sampled" (fun () -> ())
