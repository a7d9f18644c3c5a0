(** [int64] arithmetic under the names of the [int] operators, for the
    kernels that keep their words in unboxed [int64] locals (SHA-256,
    ChaCha20, the SplitMix64 bulk draws).  Open it locally —
    [Int64_ops.(a + b land mask)] — so a kernel reads like its
    specification and the precedences are those of the [int] code.

    Every operator is a compiler primitive.  ocamlopt keeps an [int64]
    that is [let]- or [ref]-bound and never escapes untagged in a
    register, where each of these is one instruction and allocates
    nothing; a tagged [int] pays a re-tag on most of them. *)

external ( + ) : int64 -> int64 -> int64 = "%int64_add"
external ( * ) : int64 -> int64 -> int64 = "%int64_mul"
external ( land ) : int64 -> int64 -> int64 = "%int64_and"
external ( lor ) : int64 -> int64 -> int64 = "%int64_or"
external ( lxor ) : int64 -> int64 -> int64 = "%int64_xor"

external ( lsl ) : int64 -> int -> int64 = "%int64_lsl"
(** Shift left; the amount must be in [\[0, 63\]]. *)

external ( lsr ) : int64 -> int -> int64 = "%int64_lsr"
(** Logical shift right; the amount must be in [\[0, 63\]]. *)
