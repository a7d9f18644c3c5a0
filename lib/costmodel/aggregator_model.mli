(** Aggregator computation (Figure 9b, §6.6): the cores needed to
    verify every device's ZKPs and sum the ciphertexts within a
    deadline. Groth16 verification is linear in the public I/O — here
    the 4.3 MB ciphertexts — so it dominates; the homomorphic additions
    barely register ("the bars for the aggregation are very small"). *)

val cores_breakdown :
  Defaults.t -> n:float -> deadline_seconds:float -> cq:int -> float * float
(** (zkp_cores, aggregation_cores). *)

(** {2 Spot-checking (§6.6)}

    "The aggregator could reduce this cost by spot-checking only a
    fraction of the ZKPs": verifying each proof with probability s cuts
    verification cores by s, while a Byzantine device slipping one bad
    contribution past goes undetected with probability (1-s) — the
    accept-a-bad-row probability the analyst trades against the bill. *)

val cores_with_spot_check :
  Defaults.t -> n:float -> deadline_seconds:float -> cq:int -> fraction:float -> float

val expected_undetected_rows : Defaults.t -> n:float -> fraction:float -> float
(** Expected bad rows surviving per query under the MC assumption's
    malicious population. *)
