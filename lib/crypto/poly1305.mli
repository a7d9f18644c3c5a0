(** Poly1305 one-time authenticator (RFC 8439). Combined with
    {!Chacha20} it forms Mycelium's AE scheme for telescoping-circuit
    control messages and the innermost onion layer.

    The accumulator h and the clamped r are five 26-bit limbs in native
    ints. The carry chain leaves every h limb below 2^26 (limb 1 below
    2^26 + 2^11), so after a message block is added each limb is below
    2^28. Each r_i is below 2^26 and each 5·r_i below 2^29, so a
    product is below 2^57, and each d_i (five products plus the carry
    in) is below 2^60: inside the 2^62 of OCaml's 63-bit int. The
    outputs are those of the arbitrary-precision definition, byte for
    byte. *)

val tag_size : int (* 16 *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] with a 32-byte one-time key; returns 16 bytes.
    Raises [Invalid_argument] on a key of another length. *)

val mac_padded : key:bytes -> (bytes * int * int) list -> bytes
(** [mac_padded ~key [ (b, pos, len); … ]] is [mac ~key] of the byte
    ranges concatenated, each zero-padded to a multiple of 16 bytes
    (RFC 8439 §2.8's mac_data), without assembling that string. *)
