(** Binary Merkle hash trees with positional inclusion proofs.

    Mycelium uses these for the verifiable maps M1 and M2 (§3.3), the
    per-mailbox MHTs and the C-round MHT (§3.4), and the summation tree
    of the global aggregation (§4.2). Proof verification checks not
    only the hashes but also that the authentication path matches the
    binary representation of the claimed index — the property devices
    rely on to audit that the aggregator walked the tree honestly. *)

type tree

type proof = {
  index : int; (** leaf position, 0-based *)
  leaf_count : int; (** number of real leaves in the tree *)
  siblings : bytes list; (** bottom-up sibling hashes *)
}

val build : bytes array -> tree
(** Build over the given leaves (at least one). Leaves are hashed with
    a 0x00 domain-separation prefix, inner nodes with 0x01, and the
    leaf layer is padded to a power of two with a distinguished empty
    hash, so the tree shape is a function of [leaf_count] alone. *)

val build_hashed : bytes array -> tree
(** Build from precomputed {!leaf_hash} values. [build leaves] equals
    [build_hashed (Array.map leaf_hash leaves)]; callers whose leaves
    live packed in an arena hash them in place with {!leaf_hash_sub}
    and build from the hashes, skipping the per-leaf copies. *)

val root : tree -> bytes

val prove : tree -> int -> proof
(** Inclusion proof for the leaf at the given index. *)

val verify : root:bytes -> leaf:bytes -> proof -> bool
(** Checks the proof against the root, including that the path
    direction at level [i] equals bit [i] of [proof.index]. *)

val leaf_hash_sub : bytes -> pos:int -> len:int -> bytes
(** [leaf_hash] of the sub-range [pos, pos+len) without copying. *)

val empty_hash : bytes
