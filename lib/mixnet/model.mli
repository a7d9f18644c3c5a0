(** Analytic models of the communication layer (§6.3), used to draw
    Figure 5 at paper scale exactly the way the paper does — small
    measurements plus closed-form extrapolation — and validated against
    the Monte Carlo simulator ({!Sim}) at simulable scale. *)

val telescoping_rounds : hops:int -> int
(** k^2 + 2k C-rounds for path setup (§3.4, Figure 5d). *)

val forwarding_rounds : hops:int -> int
(** 2k + 2 C-rounds per query: k+1 out for the query, k+1 back for the
    response (§6.3, Figure 5d). *)

val anonymity_set :
  n:float -> hops:int -> replicas:int -> fraction:float -> malicious:float -> float
(** Expected anonymity-set size of an edge (§6.3): each *honest* hop
    multiplies the candidate-sender set by r/f; malicious hops
    contribute nothing. Expectation over the binomial number of honest
    hops, capped at N. Matches the paper's ">7000 at r=2, k=3,
    mal=0.02" anchor. *)

val identification_probability : hops:int -> replicas:int -> malicious:float -> float
(** Probability that some replica's path is entirely malicious, fully
    identifying the sender (Figure 5b): 1 - (1 - m^k)^r. ~1e-5 at the
    default parameters. *)

val goodput : hops:int -> replicas:int -> failure_rate:float -> float
(** Probability a message survives: each copy must traverse k hops that
    are each up and honest; 1 - (1 - (1-fail)^k)^r (Figure 5c). *)
