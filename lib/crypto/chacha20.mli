(** ChaCha20 stream cipher (RFC 8439).

    Instantiates Mycelium's SEnc (§5): a symmetric cipher whose output
    is indistinguishable from random bytes and carries no integrity
    tag — exactly the property §3.5 needs so that forwarders can
    substitute random dummies for dropped onion layers without
    detection. *)

val nonce_size : int (* 12 *)

val block : key:bytes -> nonce:bytes -> counter:int -> bytes
(** The raw 64-byte keystream block; exposed for test vectors. *)

val encrypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes
(** XOR with the keystream starting at block [counter] (default 1, as
    in RFC 8439 AEAD). Decryption is the same operation. *)

val xor_into :
  key:bytes ->
  nonce:bytes ->
  ?counter:int ->
  src:Bytes.t ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  int ->
  unit
(** [xor_into ~key ~nonce ~src ~src_pos ~dst ~dst_pos len]: the
    allocation-free form of {!encrypt} over a byte range. [src] and
    [dst] may be the same buffer at the same offset (each byte is read
    before it is written), which is how the mixnet peels onion layers
    inside its arena. *)

val nonce_of_round : int -> bytes
(** Mycelium does not transmit nonces: both endpoints derive them from
    the monotonically increasing C-round number (§3.5, avoiding the
    nonce-leak pitfalls of [14]). *)
