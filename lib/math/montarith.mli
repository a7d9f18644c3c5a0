(** Montgomery modular arithmetic with radix R = 2^62.

    The constants the {!Mont_backend} NTT kernels read: their
    butterflies hand-inline the Montgomery reduction (REDC) behind
    {!to_mont}, and [test/test_ringops.ml] pins these entry points with
    known answers and against the {!Modarith} [mod]-based reference.

    The radix choice mirrors the Shoup quotient scale already used by
    {!Modarith.shoup_precompute}: with R = 2^62 and p < 2^30, every
    intermediate of the reduction fits OCaml's 63-bit native [int] once
    split into 31-bit halves (see DESIGN.md §11 for the derivation). *)

type ctx
(** Precomputed Montgomery constants for one modulus. *)

val supports : int -> bool
(** [supports p] is true when [p] is odd and [2 < p < 2^30] — the
    precondition for every function below. 30-bit NTT primes from
    {!Ntt.find_primes} always qualify. *)

val precompute : int -> ctx
(** Derive the constants for a modulus (Newton–Hensel inversion of [p]
    mod 2^62). Raises [Invalid_argument] unless [supports p]. *)

val neg_p_inv : ctx -> int
(** [-p^-1 mod 2^62], the REDC companion constant. *)

val to_mont : ctx -> int -> int
(** [to_mont c x = x * R mod p] for reduced [x], computed as the
    Montgomery product of [x] and R^2 mod p. Raises [Invalid_argument]
    unless [0 <= x < p]. *)
