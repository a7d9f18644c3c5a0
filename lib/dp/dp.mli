(** Differential privacy: the Laplace mechanism, sensitivity bounds and
    budget accounting (§2.3, §4.4, §4.7).

    Sensitivity in Mycelium is bounded statically: for HISTO terms it is
    2 per device in the local neighborhood (moving one unit between two
    bins); for GSUM terms it is the clipping-range width. The total
    sensitivity multiplies by the neighborhood-size bound because one
    device's data can influence every origin vertex within k hops. *)

type sensitivity = float

val histo_sensitivity : neighborhood_bound:int -> sensitivity
(** 2 * (number of origin vertices one device can influence): "it is
    always two because, by changing its local contribution, a vertex
    can at most decrease the count in one bin by 1 and increase the
    count in another" (§4.7). *)

val gsum_sensitivity : clip_lo:float -> clip_hi:float -> neighborhood_bound:int -> sensitivity
(** Clipping-range width times the influence bound. *)

val release_histogram :
  Mycelium_util.Rng.t ->
  sensitivity:sensitivity ->
  epsilon:float ->
  int array ->
  float array
(** Noised bin counts. [epsilon = infinity] releases exact counts
    (used by tests to compare against the plaintext oracle). *)

val release_sum :
  Mycelium_util.Rng.t -> sensitivity:sensitivity -> epsilon:float -> float -> float

(** {2 Privacy budget (§4.4)} *)

type accounting =
  | Basic  (** sequential composition: charge the full epsilon of every
               query — "safe but conservative" (§4.4) *)
  | Advanced of { delta : float }
      (** the advanced composition theorem (Dwork–Roth §3.5, cited by
          §4.4 as a way to "stretch the budget further"): k queries of
          eps_i cost sqrt(2 ln(1/delta) sum eps_i^2) +
          sum eps_i (e^eps_i - 1) overall, at the price of a small
          delta. *)

type budget
(** The accountant is thread-safe: charges and reads serialize behind
    an internal mutex, and the composition state is kept as O(1)
    running sums (accumulated in charge order, oldest first — the same
    order [Obs.Ledger.summarize] folds in, so audit totals reproduce
    [budget_spent] bit for bit). Concurrent chargers can therefore
    never jointly overdraw [total]. *)

val budget_create : ?accounting:accounting -> total:float -> unit -> budget

val budget_remaining : budget -> float
val budget_spent : budget -> float

val budget_charge : budget -> float -> (unit, [ `Exhausted of float ]) result
(** Deduct the full epsilon of a query ("safe but conservative", §4.4);
    fails, charging nothing, if it would overdraw (an infinite epsilon
    always does). Atomic: check and deduction happen under one lock
    acquisition. Raises [Invalid_argument] unless [eps > 0.], so NaN,
    zero and negative values are never admitted; the query entry
    points refuse them before they get here. *)
