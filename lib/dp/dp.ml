module Rng = Mycelium_util.Rng

type sensitivity = float

let histo_sensitivity ~neighborhood_bound =
  if neighborhood_bound < 1 then invalid_arg "Dp.histo_sensitivity: bound must be >= 1";
  2. *. float_of_int neighborhood_bound

let gsum_sensitivity ~clip_lo ~clip_hi ~neighborhood_bound =
  if clip_hi < clip_lo then invalid_arg "Dp.gsum_sensitivity: empty clipping range";
  if neighborhood_bound < 1 then invalid_arg "Dp.gsum_sensitivity: bound must be >= 1";
  (clip_hi -. clip_lo) *. float_of_int neighborhood_bound

let laplace_noise rng ~sensitivity ~epsilon =
  if epsilon <= 0. then invalid_arg "Dp.laplace_noise: epsilon must be positive";
  if epsilon = Float.infinity then 0. else Rng.laplace rng (sensitivity /. epsilon)

let release_histogram rng ~sensitivity ~epsilon counts =
  Array.map
    (fun c -> float_of_int c +. laplace_noise rng ~sensitivity ~epsilon)
    counts

let release_sum rng ~sensitivity ~epsilon v = v +. laplace_noise rng ~sensitivity ~epsilon

type accounting = Basic | Advanced of { delta : float }

(* The accountant keeps running sums so a charge is O(1) regardless of
   how many queries came before, and serializes chargers behind a mutex
   so concurrent admission (the serving layer's accountant fans charges
   in from many queries) can never over-admit past [total].

   The sums accumulate in charge order — oldest first.  This matters
   for Basic accounting: [Obs.Ledger.summarize] folds the charged
   epsilons in file order (also oldest first), and the audit contract
   says that fold reproduces [budget_spent] bit for bit.  Floating
   addition is not associative, so both sides must add in the same
   order. *)
type budget = {
  total : float;
  accounting : accounting;
  lock : Mutex.t;
  mutable sum : float;           (* Σ eps, oldest-first accumulation *)
  mutable sum_sq : float;        (* Σ eps², for Advanced *)
  mutable linear : float;        (* Σ eps (e^eps - 1), for Advanced *)
}

let budget_create ?(accounting = Basic) ~total () =
  if total <= 0. then invalid_arg "Dp.budget_create: total must be positive";
  (match accounting with
  | Advanced { delta } when delta <= 0. || delta >= 1. ->
    invalid_arg "Dp.budget_create: delta must be in (0,1)"
  | Advanced _ | Basic -> ());
  {
    total;
    accounting;
    lock = Mutex.create ();
    sum = 0.;
    sum_sq = 0.;
    linear = 0.;
  }

let composed_of_sums accounting ~sum ~sum_sq ~linear =
  match accounting with
  | Basic -> sum
  | Advanced { delta } -> sqrt (2. *. log (1. /. delta) *. sum_sq) +. linear

let with_lock b f =
  Mutex.lock b.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.lock) f

let spent_locked b =
  composed_of_sums b.accounting ~sum:b.sum ~sum_sq:b.sum_sq ~linear:b.linear

let budget_spent b = with_lock b (fun () -> spent_locked b)
let budget_remaining b = with_lock b (fun () -> b.total -. spent_locked b)

let budget_charge b eps =
  (* [not (eps > 0.)] also catches NaN, which would otherwise poison
     the running sums: every later comparison with a NaN total is
     false, so nothing would ever be refused again.  An infinite eps
     overdraws any budget and is refused below. *)
  if not (eps > 0.) then invalid_arg "Dp.budget_charge: epsilon must be positive";
  with_lock b (fun () ->
      let sum = b.sum +. eps in
      let sum_sq = b.sum_sq +. (eps *. eps) in
      let linear = b.linear +. (eps *. (exp eps -. 1.)) in
      let would_be = composed_of_sums b.accounting ~sum ~sum_sq ~linear in
      if would_be > b.total +. 1e-12 then
        Error (`Exhausted (b.total -. spent_locked b))
      else begin
        b.sum <- sum;
        b.sum_sq <- sum_sq;
        b.linear <- linear;
        Ok ()
      end)
