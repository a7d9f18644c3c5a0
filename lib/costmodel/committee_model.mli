(** Committee-size tradeoffs (Figure 8, §6.5), computed the way the
    paper does — from the binomial equations (credited to the
    Honeycrisp authors).

    A committee of c devices sampled from a population with malicious
    fraction m suffers a privacy failure when a majority of its members
    are malicious (they reconstruct the key); it loses liveness when
    fewer than a majority are reachable. *)

val privacy_failure : committee:int -> malicious:float -> float
(** P(#malicious >= majority) for one committee draw (Fig 8a). *)

val liveness : committee:int -> failure_rate:float -> float
(** P(#present >= majority) where each member is independently absent
    (malicious or churned out) with the given rate (Fig 8b). *)

val mpc_seconds : committee:int -> float
(** Wall-clock of the decryption MPC: ~3 minutes at c=10 (§6.5),
    growing quadratically in committee size (pairwise traffic). *)

val mpc_bandwidth_bytes : committee:int -> float
(** Per-member traffic: ~4.5 GB at c=10 (§6.5): the SCALE-MAMBA offline
    phase dominates, scaling with the ciphertext size and committee. *)

(** {2 Key distribution: Orchard vs Mycelium (§2.5, §4.2)}

    Mycelium's second modification to Orchard: generate all keys once
    and move the secret between committees with VSR, instead of
    generating and distributing fresh keys to every device for every
    query — "at the scale of millions of devices, key distribution is
    a significant source of overhead and complexity". *)

val orchard_per_query_key_bytes : n:float -> float
(** Aggregate traffic to re-key every device for one query (Orchard's
    workflow). *)

val mycelium_per_query_key_bytes : committee:int -> float
(** Mycelium's per-query key cost: one VSR hand-off among c members —
    sub-shares plus commitments, independent of N. *)
