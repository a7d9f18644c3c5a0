(** The Orchard-style summation tree (§4.2): the aggregator sums the
    origin ciphertexts up a binary tree and commits to every node, so
    each device can verify — with logarithmically many checks — that
    its contribution was included in the final sum exactly once.

    Every node carries the homomorphic sum of its subtree's
    ciphertexts; the commitment tree hashes (ciphertext, child hashes)
    pairs. A device audits its own path: its leaf appears at its
    claimed position, every node on the path is the sum of its
    children, and the root matches what the aggregator posted to the
    bulletin board. A cheating aggregator that drops, duplicates or
    alters a contribution fails the audit of some honest device. *)

(* lint: allow interface — a tree is compared through its root hash, which commits to every leaf and the shape *)
type t

val build : Mycelium_bgv.Bgv.ciphertext array -> t
(** Sum the leaves pairwise up to the root. At least one leaf. *)

val root_sum : t -> Mycelium_bgv.Bgv.ciphertext
(** The final aggregate: equal to folding {!Mycelium_bgv.Bgv.add} over
    the leaves. *)

val root_hash : t -> bytes
(** Commitment for the bulletin board. *)

val leaf_count : t -> int

val rebuild : t -> t
(** Crash recovery: reconstruct the whole tree from {!leaves} alone.
    [build] is deterministic, so
    [root_hash (rebuild t) = root_hash t] and the recovered aggregator
    answers audits identically — the invariant the aggregator-restart
    fault class checks. *)

type audit_path = {
  index : int;
  steps : (Mycelium_bgv.Bgv.ciphertext * bytes) option list;
      (** bottom-up: the sibling node's ciphertext and commitment hash,
          or [None] where an odd node was promoted unpaired *)
}

val audit : t -> int -> audit_path
(** The aggregator's response to device [index]'s audit request. *)

val verify_audit :
  Mycelium_bgv.Bgv.ciphertext ->
  root_hash:bytes ->
  root_sum:Mycelium_bgv.Bgv.ciphertext ->
  leaf_count:int ->
  audit_path ->
  bool
(** [verify_audit my_contribution ~root_hash ~root_sum ~leaf_count path]
    is the device-side check: recompute the sums and commitments up the
    path from [my_contribution] and the claimed siblings; accept iff
    both the commitment chain ends in [root_hash] and the running sum
    ends in [root_sum]. *)
