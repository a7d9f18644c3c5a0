(** Montgomery Bigarray NTT kernels: the ring kernels every {!Rns}
    basis runs on.

    Computes exactly the same negacyclic transform as {!Ntt} — both
    read the tables from {!Ntt.tables} — but with Montgomery-domain
    twiddles (radix R = 2^62, see {!Montarith}), radix-4 butterflies
    (two radix-2 stages fused per memory pass) and unchecked accesses
    into a flat unboxed [Bigarray] workspace held per domain.  Every
    butterfly output is canonically reduced, so results are
    bit-identical to {!Ntt}'s Shoup kernels, the test reference; only
    throughput differs.

    Callers normally reach this through {!Rq}. *)

type plan
(** Montgomery-domain twiddle tables for one (p, N) pair. *)

val available : p:int -> bool
(** Montgomery reduction here requires an odd modulus below 2^30
    (the bound that keeps every intermediate inside a 63-bit [int]);
    30-bit NTT primes from {!Ntt.find_primes} always qualify. *)

val make_plan : p:int -> degree:int -> plan
(** Same preconditions as {!Ntt.make_plan}, plus [available ~p]. *)

(** Entry points with the same contracts as their {!Ntt} namesakes
    ([src == dst] allowed; [dst] may alias an input in
    [pointwise_into]; [src] left intact otherwise). *)

val forward : plan -> int array -> unit
val inverse : plan -> int array -> unit
val forward_into : plan -> src:int array -> dst:int array -> unit
val inverse_into : plan -> src:int array -> dst:int array -> unit
val pointwise_into : plan -> dst:int array -> int array -> int array -> unit
val pointwise_acc : plan -> acc:int array -> int array -> int array -> unit
