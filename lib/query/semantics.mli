(** Reference semantics for queries over a contact graph.

    This is the ground truth the HE engine ([Mycelium_core]) must
    reproduce exactly (before noise), and the plaintext evaluation
    itself: [decode info (Array.map float_of_int (global_histogram info
    g))] is a query's exact answer in the clear, which
    [mycelium run --plaintext] prints and the §7 figure times as the
    GraphX stand-in. It mirrors the protocol's structure:

    - the [neigh(k)] table has a row per BFS-reachable member of the
      origin's k-hop neighborhood plus the origin itself; the [edge]
      column group holds the first edge on the BFS path (undefined for
      the origin row — predicates touching it then fail, NULL-style);
    - WHERE must split into conjuncts that are each origin-side,
      dest-side or cross (the language restriction of §4);
    - self-only conjuncts gate the whole origin (Enc(0));
      row-level conjuncts gate individual contributions (exponent 0);
    - ages are compared and grouped at decade granularity, matching the
      10-ciphertext sequence length of the §4.5 mechanism;
    - GSUM ratio queries pack (sum, count) per row into the exponent:
      row exponent = b * count_stride + passes, so the final bin index
      decodes to the (S, C) pair the committee turns into a clipped
      ratio (see Analysis). *)

type row_ctx = {
  self : Mycelium_graph.Schema.vertex_data;
  dest : Mycelium_graph.Schema.vertex_data;
  edge : Mycelium_graph.Schema.edge_data option;
}

val eval_pred : Ast.pred -> row_ctx -> bool
(** Whole predicate; undefined atoms are false (SQL-ish NULL). *)

val split_where :
  Ast.pred -> (Ast.pred list * Ast.pred list, string) result
(** [(origin_global, row_level)] conjuncts. Fails when a conjunct mixes
    a self-only disjunct with dest parts in a way the protocol cannot
    place. *)

val row_value : Analysis.info -> row_ctx -> int
(** The §4.3 contribution b of one row: aggregation argument gated by
    the row-level predicates (0 when gated; 1 for COUNT; bucketized
    attribute for SUM). *)

val origin_group : Analysis.info -> Mycelium_graph.Schema.vertex_data -> int
(** Group index for self-grouped queries. *)

val origin_gate : Analysis.info -> Mycelium_graph.Schema.vertex_data -> bool
(** Whether the self-only WHERE conjuncts hold for this origin; when
    false the origin contributes Enc(0). *)

val accumulation_group : Analysis.info -> row_ctx -> int option
(** Which per-origin accumulator a row feeds: always 0 for ungrouped or
    self-grouped queries; the row's group for edge-/cross-grouped
    ones. *)

val is_ratio : Analysis.info -> bool

val row_passes : Analysis.info -> row_ctx -> bool
(** All row-level predicates hold (the GSUM ratio denominator test). *)

(* lint: allow unused-export — test_query measures one origin's
   contribution, which global_histogram only sums *)
val local_exponents :
  Analysis.info -> Mycelium_graph.Contact_graph.t -> origin:int -> int list option
(** The bin indices this origin contributes to the global aggregation:
    [None] when the origin gate fails (it contributes Enc(0)); one
    index for ungrouped/self-grouped queries, one per group otherwise.
    Each index is < [info.layout.total_bins]. *)

val global_histogram :
  Analysis.info -> Mycelium_graph.Contact_graph.t -> int array
(** Sum of all origins' contributions: the exact (pre-noise) content of
    the aggregate plaintext polynomial. *)

(** {2 Final processing (§4.4 committee post-processing)} *)

type result =
  | Histogram of (string * float array) array
      (** per group label, bin counts *)
  | Sums of (string * float) array  (** per group label, clipped GSUM *)

val decode : Analysis.info -> float array -> result
(** Interpret (possibly noised) bin counts. *)

