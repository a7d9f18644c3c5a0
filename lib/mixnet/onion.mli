(** Onion message encoding (§3.2, §3.5).

    The innermost layer — source to destination — uses authenticated
    encryption (ciphertext integrity end to end). Every outer layer
    uses the plain stream cipher SEnc, *without* a MAC: §3.5's
    dummy-generation argument requires that a forwarder can substitute
    a uniformly random string for a dropped message and the next hop
    cannot tell. Nonces are never transmitted; both ends derive them
    from the C-round number. All layers preserve length, so message
    size does not reveal position along the path. *)

val layer_key_size : int (* 32 *)

val seal_inner : key:bytes -> round:int -> bytes -> bytes
(** AE to the destination; adds {!inner_overhead} bytes. *)

val open_inner : key:bytes -> round:int -> bytes -> bytes option

val inner_overhead : int

val peel_into :
  key:bytes -> round:int -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> int -> unit
(** Remove (equally, add: the stream cipher is an XOR) one SEnc layer
    of a byte range, without allocating; [src] and [dst] may alias at
    the same offset. The arena simulator peels each forwarded message
    from the previous round's body arena straight into the next
    round's. *)

val wrap_into :
  hop_keys:bytes array -> round:int -> inner:bytes -> dst:Bytes.t -> dst_pos:int -> unit
(** [wrap_into ~hop_keys ~round ~inner ~dst ~dst_pos] writes the onion
    of [inner] into a caller-provided slice of length
    [Bytes.length inner]: one blit plus per-layer in-place XOR, layered
    so that [hop_keys.(0)] peels first (the first hop). *)

val dummy_into : Mycelium_util.Rng.t -> dst:Bytes.t -> dst_pos:int -> length:int -> unit
(** A uniformly random string of the given length written into a
    slice: what a forwarder uploads in place of a missing message. *)
