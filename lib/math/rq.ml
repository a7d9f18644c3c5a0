module Rng = Mycelium_util.Rng
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs

(* Hot-op observability (DESIGN.md §8): counters of per-limb ring
   multiplies and domain transforms, plus one sampled span per 64 ring
   multiplications so a trace shows where ring time goes without a
   span per call.  The call sites guard on [Obs.enabled] so the
   disabled path costs one branch and allocates nothing. *)
let m_limb_ntt_muls = Obs.Metrics.counter Obs.Names.rq_limb_ntt_muls
let m_limb_transforms = Obs.Metrics.counter Obs.Names.rq_limb_transforms
let mul_sampler = Obs.sampler ~every:64
let dot_sampler = Obs.sampler ~every:64

type repr = Coeff | Eval

(* An element is a mathematical value of R_q; which domain its residue
   rows currently live in is a cache concern, not part of the value.
   The representation tag and the rows travel together in one
   immutable record behind a single mutable field, so a lazy
   conversion is one atomic pointer write: a concurrent reader sees
   either the old state or the new one, never a torn mix, and both
   denote the same ring element.  Conversion allocates fresh rows —
   it never mutates arrays a previously observed state points to. *)
type state = { repr : repr; rows : int array array }

type t = { basis : Rns.t; mutable st : state }

(* Per-limb parallelism: each RNS row is independent, so limb ops map
   cleanly onto the domain pool.  Dispatch costs a few microseconds, so
   only ship work out once a limb is big enough to amortise it: NTT
   transforms (O(n log n) with a large constant) from degree 512, plain
   pointwise passes only from degree 4096.  Results are written by limb
   index, so the output is identical at any domain count. *)
let ntt_par_degree = 512
let pointwise_par_degree = 4096

let pmapi ~min_degree basis f arr =
  if Rns.degree basis >= min_degree && Array.length arr > 1 then
    Pool.mapi_array (Pool.default ()) f arr
  else Array.mapi f arr

let basis_of t = t.basis

let repr_of t = t.st.repr

(* Lazy domain conversion.  The snapshot-then-swap discipline makes a
   race between two forcers benign: both compute identical rows from
   the same snapshot and the last single-word write wins.  The hot
   pipeline additionally pre-forces every value that is shared across
   pool tasks (public keys, relin key digits, ciphertext components
   before the cross-term fan-out), so in practice conversions happen
   once, outside parallel regions. *)
let convert target t =
  let st = t.st in
  if st.repr <> target then begin
    if Obs.enabled () then Obs.Metrics.add m_limb_transforms (Array.length st.rows);
    let plans = Rns.plans t.basis in
    let rows =
      pmapi ~min_degree:ntt_par_degree t.basis
        (fun j plan ->
          let src = st.rows.(j) in
          let dst = Array.make (Array.length src) 0 in
          (match target with
          | Eval -> Mont_backend.forward_into plan ~src ~dst
          | Coeff -> Mont_backend.inverse_into plan ~src ~dst);
          dst)
        plans
    in
    t.st <- { repr = target; rows }
  end

let force_eval t = convert Eval t
let force_coeff t = convert Coeff t

let zero basis =
  let n = Rns.degree basis in
  {
    basis;
    st = { repr = Coeff; rows = Array.map (fun _ -> Array.make n 0) (Rns.primes basis) };
  }

(* Samples and plaintext coefficients lie in [-p, p), where one
   conditional add of p is the whole reduction; anything wider (a
   plaintext modulus above the primes) takes the division. *)
let of_centered_coeffs basis coeffs =
  let n = Rns.degree basis in
  if Array.length coeffs > n then invalid_arg "Rq.of_centered_coeffs: too many coefficients";
  let rows =
    Array.map
      (fun p ->
        let row = Array.make n 0 in
        for i = 0 to Array.length coeffs - 1 do
          let c = coeffs.(i) in
          row.(i) <-
            (if c >= p || c < -p then Modarith.reduce p c else c + ((c asr 62) land p))
        done;
        row)
      (Rns.primes basis)
  in
  { basis; st = { repr = Coeff; rows } }

let residues t = t.st.rows

let of_residues ?(repr = Coeff) basis rows =
  let n = Rns.degree basis in
  let k = Array.length (Rns.primes basis) in
  if Array.length rows <> k then invalid_arg "Rq.of_residues: wrong number of rows";
  Array.iter (fun r -> if Array.length r <> n then invalid_arg "Rq.of_residues: wrong row length") rows;
  { basis; st = { repr; rows = Array.map Array.copy rows } }

(* Coefficient-domain rows without changing [t]'s resident
   representation: decryption and noise probes must not flip a shared
   ciphertext back to Coeff behind the pipeline's back. *)
let coeff_rows_snapshot t =
  let st = t.st in
  match st.repr with
  | Coeff -> st.rows
  | Eval ->
    if Obs.enabled () then Obs.Metrics.add m_limb_transforms (Array.length st.rows);
    let plans = Rns.plans t.basis in
    pmapi ~min_degree:ntt_par_degree t.basis
      (fun j plan ->
        let src = st.rows.(j) in
        let dst = Array.make (Array.length src) 0 in
        Mont_backend.inverse_into plan ~src ~dst;
        dst)
      plans

let to_bigint_coeffs t = Rns.to_bigint_rows_centered t.basis (coeff_rows_snapshot t)

let centered_mod t ~modulus = Rns.centered_mod_rows t.basis ~modulus (coeff_rows_snapshot t)

(* Digit j is coefficient row j centred in (-p_j/2, p_j/2] and lifted
   to every limb, so only its own limb is the row itself: when the
   input is resident in Eval, that limb is the input's evaluation row
   (shared, like every row, never mutated) and the digit costs L - 1
   forward transforms. *)
let rns_digits t =
  let basis = t.basis and st = t.st in
  let coeff = coeff_rows_snapshot t in
  let primes = Rns.primes basis and plans = Rns.plans basis in
  let n = Rns.degree basis and l = Array.length primes in
  let own_eval = match st.repr with Eval -> true | Coeff -> false in
  if Obs.enabled () then
    Obs.Metrics.add m_limb_transforms (l * if own_eval then l - 1 else l);
  pmapi ~min_degree:ntt_par_degree basis
    (fun j pj ->
      let src = coeff.(j) and half = pj / 2 in
      let rows =
        Array.mapi
          (fun i plan ->
            if i = j && own_eval then st.rows.(j)
            else begin
              let pi = primes.(i) in
              let dst = Array.make n 0 in
              for c = 0 to n - 1 do
                let r = src.(c) in
                let v = if r > half then r - pj else r in
                dst.(c) <-
                  (if v >= pi || v < -pi then Modarith.reduce pi v else v + ((v asr 62) land pi))
              done;
              Mont_backend.forward plan dst;
              dst
            end)
          plans
      in
      { basis; st = { repr = Eval; rows } })
    primes

(* Structural comparison must not see the representation: normalise a
   mixed pair to the evaluation domain (the transform is a bijection,
   so equality of rows is preserved) and compare the limb arrays
   element by element. *)
let rows_equal ra rb =
  Array.length ra = Array.length rb
  && begin
    let ok = ref true in
    Array.iteri
      (fun j row ->
        let rowb = rb.(j) in
        if Array.length row <> Array.length rowb then ok := false
        else
          for i = 0 to Array.length row - 1 do
            if row.(i) <> rowb.(i) then ok := false
          done)
      ra;
    !ok
  end

let equal a b =
  Rns.equal a.basis b.basis
  && begin
    if a.st.repr <> b.st.repr then begin
      force_eval a;
      force_eval b
    end;
    rows_equal a.st.rows b.st.rows
  end

(* Pointwise binary ops are domain-agnostic (the NTT is linear, and
   scaling by a constant residue is coordinate-wise in both domains):
   run them in whatever domain the operands already share; a mixed
   pair meets in the evaluation domain, the pipeline steady state. *)
let align a b =
  if a.st.repr <> b.st.repr then begin
    force_eval a;
    force_eval b
  end;
  (a.st, b.st)

(* One pass per limb over a pair of rows, with the modular step
   written out in the loop: a reduced sum lies in [0, 2p) and a reduced
   difference in (-p, p), so one branch-free conditional correction
   lands each in [0, p). *)
let zip_rows row_op a b =
  if not (Rns.equal a.basis b.basis) then invalid_arg "Rq: basis mismatch";
  let sa, sb = align a b in
  let rows =
    pmapi ~min_degree:pointwise_par_degree a.basis
      (fun j p -> row_op p sa.rows.(j) sb.rows.(j))
      (Rns.primes a.basis)
  in
  { basis = a.basis; st = { repr = sa.repr; rows } }

let add_rows p ra rb =
  let dst = Array.make (Array.length ra) 0 in
  for i = 0 to Array.length ra - 1 do
    let d = ra.(i) + rb.(i) - p in
    dst.(i) <- d + ((d asr 62) land p)
  done;
  dst

let sub_rows p ra rb =
  let dst = Array.make (Array.length ra) 0 in
  for i = 0 to Array.length ra - 1 do
    let d = ra.(i) - rb.(i) in
    dst.(i) <- d + ((d asr 62) land p)
  done;
  dst

let add a b = zip_rows add_rows a b
let sub a b = zip_rows sub_rows a b

let neg a =
  let sa = a.st in
  let primes = Rns.primes a.basis in
  let rows =
    pmapi ~min_degree:pointwise_par_degree a.basis
      (fun j row -> Array.map (Modarith.neg primes.(j)) row)
      sa.rows
  in
  { basis = a.basis; st = { repr = sa.repr; rows } }

(* Multiplication is where the representation pays off: force both
   operands into the evaluation domain (lazily, once per value) and
   the product is a single pointwise pass per limb.  The result stays
   in Eval — no inverse transform until some consumer actually needs
   coefficients. *)
let mul_impl a b =
  if not (Rns.equal a.basis b.basis) then invalid_arg "Rq.mul: basis mismatch";
  force_eval a;
  force_eval b;
  let sa = a.st and sb = b.st in
  let plans = Rns.plans a.basis in
  let rows =
    pmapi ~min_degree:pointwise_par_degree a.basis
      (fun j plan ->
        let dst = Array.make (Rns.degree a.basis) 0 in
        Mont_backend.pointwise_into plan ~dst sa.rows.(j) sb.rows.(j);
        dst)
      plans
  in
  { basis = a.basis; st = { repr = Eval; rows } }

(* Encryption's c_k = a_k * u + e_k with u and the e_k as signed
   coefficients: one Mont_backend.lift_mul_add pass per limb lifts and
   transforms u once and each e_k into its output row, so the only rows
   allocated are the outputs.  The counters read what the separate
   lift, transform, multiply and add would have counted: L transforms
   for u and for each e_k, L limb multiplies for each a_k. *)
let mul_add_centered ~u terms =
  let k = Array.length terms in
  if k = 0 then invalid_arg "Rq.mul_add_centered: no terms";
  let basis = (fst terms.(0)).basis in
  let n = Rns.degree basis in
  if Array.length u <> n then invalid_arg "Rq.mul_add_centered: wrong length";
  let a_rows =
    Array.map
      (fun (a, e) ->
        if not (Rns.equal a.basis basis) then invalid_arg "Rq.mul_add_centered: basis mismatch";
        if Array.length e <> n then invalid_arg "Rq.mul_add_centered: wrong length";
        force_eval a;
        a.st.rows)
      terms
  in
  let plans = Rns.plans basis in
  let l = Array.length plans in
  if Obs.enabled () then begin
    Obs.Metrics.add m_limb_transforms (l * (k + 1));
    Obs.Metrics.add m_limb_ntt_muls (l * k)
  end;
  let out = Array.init k (fun _ -> Array.init l (fun _ -> Array.make n 0)) in
  ignore
    (pmapi ~min_degree:ntt_par_degree basis
       (fun j plan ->
         Mont_backend.lift_mul_add plan ~u
           (Array.mapi (fun i (_, e) -> (a_rows.(i).(j), e, out.(i).(j))) terms))
       plans);
  Array.map (fun rows -> { basis; st = { repr = Eval; rows } }) out

let mul a b =
  if not (Obs.enabled ()) then mul_impl a b
  else begin
    Obs.Metrics.add m_limb_ntt_muls (Array.length (Rns.primes a.basis));
    Obs.sampled_span mul_sampler Obs.Names.rq_mul
      ~attrs:[ ("degree", Obs.Json.Int (Rns.degree a.basis)) ]
      (fun () -> mul_impl a b)
  end

(* dot a b = sum_i a.(i) * b.(i): the convolution cross terms of a
   ciphertext tensor product, fused so every limb accumulates all
   pointwise products in one pass over one accumulator row. *)
let dot_impl a b =
  let len = Array.length a in
  if len = 0 || Array.length b <> len then invalid_arg "Rq.dot: length mismatch";
  let basis = a.(0).basis in
  let check x = if not (Rns.equal x.basis basis) then invalid_arg "Rq.dot: basis mismatch" in
  Array.iter check a;
  Array.iter check b;
  Array.iter force_eval a;
  Array.iter force_eval b;
  let plans = Rns.plans basis in
  let rows =
    pmapi ~min_degree:pointwise_par_degree basis
      (fun j plan ->
        let acc = Array.make (Rns.degree basis) 0 in
        for i = 0 to len - 1 do
          Mont_backend.pointwise_acc plan ~acc a.(i).st.rows.(j) b.(i).st.rows.(j)
        done;
        acc)
      plans
  in
  { basis; st = { repr = Eval; rows } }

let dot a b =
  if Array.length a = 0 || Array.length b <> Array.length a then
    invalid_arg "Rq.dot: length mismatch";
  if not (Obs.enabled ()) then dot_impl a b
  else begin
    Obs.Metrics.add m_limb_ntt_muls (Array.length a * Array.length (Rns.primes a.(0).basis));
    Obs.sampled_span dot_sampler Obs.Names.rq_dot
      ~attrs:[ ("terms", Obs.Json.Int (Array.length a)) ]
      (fun () -> dot_impl a b)
  end

(* Every limb is scaled by one reduced constant, so its Shoup companion
   is computed once per limb and each residue costs two multiplies and
   a conditional subtraction instead of a hardware divide. *)
let scale_rows a scalar_of_limb =
  let primes = Rns.primes a.basis in
  let sa = a.st in
  let rows =
    pmapi ~min_degree:pointwise_par_degree a.basis
      (fun j row ->
        let p = primes.(j) in
        let w = Modarith.reduce p (scalar_of_limb j) in
        let w' = Modarith.shoup_precompute p w in
        let dst = Array.make (Array.length row) 0 in
        for i = 0 to Array.length row - 1 do
          dst.(i) <- Modarith.shoup_mul p w w' row.(i)
        done;
        dst)
      sa.rows
  in
  { basis = a.basis; st = { repr = sa.repr; rows } }

let mul_scalar a s = scale_rows a (fun _ -> s)

let mul_scalar_residues a scalar =
  if Array.length scalar <> Array.length (Rns.primes a.basis) then
    invalid_arg "Rq.mul_scalar_residues: wrong residue count";
  scale_rows a (fun j -> scalar.(j))

(* The samplers draw through [Rng]'s bulk forms: the values, their
   order and the generator's final state are those of one single draw
   per coefficient (rows in prime order for [random_uniform]). *)
let random_uniform basis rng =
  let n = Rns.degree basis in
  let rows =
    Array.map
      (fun p ->
        let row = Array.make n 0 in
        Rng.fill_int rng p row;
        row)
      (Rns.primes basis)
  in
  { basis; st = { repr = Coeff; rows } }

let sample_ternary_coeffs basis rng =
  let coeffs = Array.make (Rns.degree basis) 0 in
  Rng.fill_int rng 3 coeffs;
  for i = 0 to Array.length coeffs - 1 do
    coeffs.(i) <- coeffs.(i) - 1
  done;
  coeffs

let sample_ternary basis rng = of_centered_coeffs basis (sample_ternary_coeffs basis rng)

let sample_cbd basis ~eta rng =
  let coeffs = Array.make (Rns.degree basis) 0 in
  Rng.fill_centered_binomial rng ~eta coeffs;
  of_centered_coeffs basis coeffs
