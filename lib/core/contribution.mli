(** Device-side contribution construction and origin-side local
    aggregation (§4.3–§4.5), on real BGV ciphertexts.

    A destination vertex answering a query evaluates the row-level
    predicates it can see (its own columns plus the shared edge
    columns), and encrypts its contribution with the §4.1 encoding:
    - no cross-column comparison: one ciphertext, Enc(x^b) with b the
      gated aggregation value (0 when gated out — the multiplicative
      identity x^0);
    - with a cross-column comparison on a field with L buckets: a
      sequence of L ciphertexts, Enc(x^b) at the position of its own
      bucket and Enc(x^0) elsewhere (§4.5). The origin then sums the
      subsequence its own value selects and subtracts Enc(|S|-1),
      recovering Enc(x^b) or the neutral Enc(x^0).

    GSUM ratio queries pack b = s*count_stride + 1 so both numerator
    and denominator aggregate in one exponent.

    Every ciphertext ships with a §4.6 well-formedness proof; the
    origin's aggregation ships with a transcript proof. *)

type t = {
  ciphertexts : Mycelium_bgv.Bgv.ciphertext array;
      (** length = the Figure-6 sequence length *)
  proofs : Mycelium_zkp.Zkp.proof array;
}

val sequence_length : Mycelium_query.Analysis.info -> int

val build :
  Mycelium_zkp.Zkp.srs ->
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  Mycelium_bgv.Bgv.public_key ->
  Mycelium_query.Analysis.info ->
  dest:Mycelium_graph.Schema.vertex_data ->
  edge:Mycelium_graph.Schema.edge_data option ->
  t
(** What a destination device sends for one row. *)

val build_malicious :
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  Mycelium_bgv.Bgv.public_key ->
  Mycelium_query.Analysis.info ->
  exponent:int ->
  coeff:int ->
  t
(** A Byzantine contribution: an over-weighted value with forged
    proofs. The aggregator must reject it (§4.6). *)

val to_bytes : t -> bytes
(** Wire form for routing through the mixnet. *)

val of_bytes : Mycelium_bgv.Bgv.ctx -> bytes -> t option

val wire_size : Mycelium_bgv.Bgv.ctx -> Mycelium_query.Analysis.info -> int
(** Serialized size of one row's contribution under the given
    parameters (sequence length x ciphertext size + proofs). *)

val verify :
  Mycelium_zkp.Zkp.srs -> Mycelium_bgv.Bgv.ctx -> Mycelium_query.Analysis.info -> t -> bool
(** Aggregator-side check of every element's proof. *)

val aggregate_subtree :
  Mycelium_zkp.Zkp.srs ->
  own:Mycelium_bgv.Bgv.ciphertext option ->
  children:Mycelium_bgv.Bgv.ciphertext list ->
  (Mycelium_bgv.Bgv.ciphertext * Mycelium_zkp.Zkp.proof, string) result
(** One step of the §4.4 spanning-tree aggregation: an interior vertex
    multiplies its own (already-proven) contribution with its
    children's partial products and proves the product to the
    aggregator. [own = None] models a vertex whose own contribution was
    discarded (its children still flow). Only for queries without §4.5
    sequences (multi-hop queries in the corpus have none). *)

val aggregate_origin :
  Mycelium_zkp.Zkp.srs ->
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  Mycelium_bgv.Bgv.public_key ->
  Mycelium_query.Analysis.info ->
  self:Mycelium_graph.Schema.vertex_data ->
  rows:(Mycelium_graph.Schema.edge_data option * t) list ->
  (Mycelium_bgv.Bgv.ciphertext * Mycelium_zkp.Zkp.proof, string) result
(** The origin's local aggregation over verified neighbor rows plus its
    own row: §4.5 sequence selection and correction, per-group routing
    and bin shifts, the §4.4 origin gate (Enc(0) when it fails), and
    the aggregation transcript proof. [rows] excludes the origin's own
    row — it is built internally (it knows its own data). *)
