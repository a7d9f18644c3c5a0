(** Bandwidth extrapolation (§6.4, §6.6; Figures 7 and 9a).

    A device sends r*Cq*d ciphertexts (d messages, r replicas, Cq
    ciphertexts each — Figure 6) and receives as many responses; a
    device chosen as a forwarder additionally handles batches of
    (r*Cq*d)/f ciphertexts. A k*f fraction of devices serve as
    forwarders, giving the paper's ~430 MB expectation with the
    Figure 4 defaults, against 1030 MB for forwarders and 170 MB for
    non-forwarders (§6.4). The aggregator sends each device its mailbox
    contents: (k+1)*r*Cq*d ciphertexts, ~350 MB (§6.6, Figure 9a). *)

val non_forwarder_bytes :
  Defaults.t -> cq:int -> float
(** Own messages out plus responses back: 2*r*Cq*d ciphertexts. *)

val forwarder_bytes : Defaults.t -> cq:int -> float
(** Non-forwarder traffic plus the forwarding batch. *)

val expected_bytes : Defaults.t -> cq:int -> float
(** Weighted by the k*f chance of serving as a forwarder. *)

val aggregator_per_device_bytes : Defaults.t -> cq:int -> float
(** Fig 9a: traffic the aggregator sends each device per query. *)
