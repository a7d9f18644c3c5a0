(** The public bulletin board (assumption 5 of §3.1): an append-only,
    hash-chained log that prevents the aggregator from equivocating.
    The paper suggests a blockchain; for the simulation a single
    authoritative log with hash chaining gives the property that
    matters — all honest parties see the same sequence, and any
    retroactive edit changes the head hash. *)

(* lint: allow interface — a log is compared through its head hash, which chains over every entry *)
type t

type entry = {
  seq : int;
  author : string;
  payload : bytes;
  prev_hash : bytes;
  hash : bytes;
}

val create : unit -> t

val post : t -> author:string -> bytes -> entry
(** Append and return the new entry. *)

val length : t -> int
val head_hash : t -> bytes

val verify_chain : t -> bool
(** Recompute the hash chain; false if the log was tampered with. *)
