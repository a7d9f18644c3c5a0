(** Montgomery modular arithmetic with radix R = 2^62.

    Scalar specification for the {!Mont_backend} NTT kernels: the
    butterflies there hand-inline exactly the arithmetic exposed here,
    and the KAT / differential suites in [test/test_ringops.ml] pin
    these entry points against the {!Modarith} [mod]-based reference.

    The radix choice mirrors the Shoup quotient scale already used by
    {!Modarith.shoup_precompute}: with R = 2^62 and p < 2^30, every
    intermediate of the reduction fits OCaml's 63-bit native [int] once
    split into 31-bit halves (see DESIGN.md §11 for the derivation). *)

type ctx
(** Precomputed Montgomery constants for one modulus. *)

val r_bits : int
(** log2 of the Montgomery radix R; always 62. *)

val supports : int -> bool
(** [supports p] is true when [p] is odd and [2 < p < 2^30] — the
    precondition for every function below. 30-bit NTT primes from
    {!Ntt.find_primes} always qualify. *)

val precompute : int -> ctx
(** Derive the constants for a modulus (Newton–Hensel inversion of [p]
    mod 2^62). Raises [Invalid_argument] unless [supports p]. *)

val neg_p_inv : ctx -> int
(** [-p^-1 mod 2^62], the REDC companion constant. *)

val r_mod_p : ctx -> int
(** [R mod p]: the Montgomery image of 1. *)

val r2_mod_p : ctx -> int
(** [R^2 mod p], used to enter the Montgomery domain. *)

val reduce : ctx -> int -> int
(** [reduce c t] is [t * R^-1 mod p], reduced to [\[0, p)], for any
    [t] in [\[0, 2^62)] — including values straddling the top of the
    radix. Raises [Invalid_argument] outside that range. *)

val mul : ctx -> int -> int -> int
(** [mul c x y] is the Montgomery product [x*y*R^-1 mod p] of reduced
    operands. If [y] is a Montgomery-domain constant [w*R mod p], the
    result is the plain product [x*w mod p] — the trick the NTT
    twiddle tables exploit. *)

val to_mont : ctx -> int -> int
(** [to_mont c x = x * R mod p] for reduced [x]. *)

val of_mont : ctx -> int -> int
(** [of_mont c x = x * R^-1 mod p]; inverse of {!to_mont}. *)
