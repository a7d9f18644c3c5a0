(** ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8), the
    paper's AE instantiation (§5). Per §3.5, the nonce is the C-round
    number known to both endpoints and is never transmitted. *)

val overhead : int (* 16, the Poly1305 tag *)

val seal : key:bytes -> round:int -> ?aad:bytes -> bytes -> bytes
(** [seal ~key ~round msg] is ciphertext || tag. *)

val open_ : key:bytes -> round:int -> ?aad:bytes -> bytes -> bytes option
(** [open_ ~key ~round ct] is [Some plaintext] iff the tag verifies. *)

val seal_nonce : key:bytes -> nonce:bytes -> ?aad:bytes -> bytes -> bytes
val open_nonce : key:bytes -> nonce:bytes -> ?aad:bytes -> bytes -> bytes option
(** Explicit-nonce variants, used by the RFC test vectors. *)
