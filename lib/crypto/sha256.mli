(** SHA-256 (FIPS 180-4), written from scratch for the sealed
    environment. Used for pseudonym derivation (h = H(pk), §3.1),
    Merkle hash trees, hop selection (§3.4), HMAC and HKDF. *)

val digest : bytes -> bytes
(** One-shot hash of a byte string. *)

val digest_string : string -> bytes

type ctx
(** Incremental hashing. *)

val init : unit -> ctx
val update : ctx -> bytes -> unit

val update_sub : ctx -> bytes -> pos:int -> len:int -> unit
(** Hash a sub-range of [data] without copying it out first; equivalent
    to [update ctx (Bytes.sub data pos len)]. For arena-packed callers
    (mixnet mailbox commits) where a per-slot [Bytes.sub] per leaf
    would dominate the allocation profile. *)

val update_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** May be called once per context. *)

val hmac : key:bytes -> bytes -> bytes
(** HMAC-SHA256 (RFC 2104). *)
