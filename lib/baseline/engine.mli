(** The plaintext baseline: evaluates Mycelium queries in the clear,
    the way a trusted aggregator with GraphX would (§7, §2.4's first
    strawman). {!run} evaluates any corpus query exactly via the shared
    reference semantics, the noise-free answer the encrypted pipeline
    is checked against. *)

val run :
  Mycelium_query.Analysis.info ->
  Mycelium_graph.Contact_graph.t ->
  Mycelium_query.Semantics.result
(** Exact, noise-free query answer. *)

val time_plaintext_query :
  Mycelium_query.Analysis.info ->
  Mycelium_graph.Contact_graph.t ->
  float
(** Wall-clock seconds for {!run}; the §7 measurement input that the
    cost model extrapolates to the paper's billion-vertex anecdote. *)
