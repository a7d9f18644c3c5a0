(* Montgomery Bigarray NTT kernels: the ring kernels behind Rq.

   The negacyclic transform over the twiddle tables of Ntt.tables,
   engineered for throughput on the critical path; one copy of the
   forward butterflies (forward_stages) serves both forward_into and
   encryption's fused lift_mul_add, which lifts signed coefficients
   straight into the workspace and multiply-adds in its copy out:

   - Montgomery reduction with R = 2^62 instead of Shoup quotients;
     twiddles are stored in the Montgomery domain (w*R mod p), so the
     data itself never leaves the normal domain.
   - Radix-4: two radix-2 stages fused per memory pass, halving loads
     and stores over the working set.
   - Harvey-style lazy reduction: intermediates live in [0, 4p) on the
     forward path and [0, 2p) on the inverse path, and every residual
     conditional subtraction is branchless (sign-mask arithmetic), so
     the butterflies contain no data-dependent branches at all.
     Canonicalisation to [0, p) is fused into the copy-out (forward)
     and n^-1 scaling (inverse) passes, so every output is the
     canonical residue (test_ringops pins them with known answers).
   - A flat unboxed Bigarray workspace per domain with unchecked
     accesses (2n long once lift_mul_add has run: its second half
     holds the transformed mask).

   The hand-inlined lazy Montgomery product of x < 4p by a
   Montgomery-domain constant wm < p is (p < 2^30 keeps every
   intermediate inside a 63-bit int; see Montarith's REDC and
   DESIGN.md §11 for the carry argument):
     t  = x * wm                          < 4p*p < 2^62
     m  = t * (-p^-1)  mod 2^62
     c0 = t + (m land mask31) * p         < 2^63
     u  = ((c0 lsr 31) + (m lsr 31) * p) lsr 31
   with u = (t + m*p) / 2^62 <= p exactly — no trailing subtraction
   needed to keep the [0, 2p) invariant. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let mask62 = (1 lsl 62) - 1
let mask31 = 0x7FFFFFFF

type plan = {
  p : int;
  n : int;
  log_n : int;
  neg_p_inv : int;
  (* Montgomery-domain twiddles, same bit-reversed Longa–Naehrig
     layout as Ntt.tables. *)
  psi_m : ba;
  inv_psi_m : ba;
  n_inv_m : int;
}

let make_plan ~p ~degree =
  if not (Montarith.supports p) then
    invalid_arg "Mont_backend.make_plan: modulus must be odd and in (2, 2^30)";
  let tb = Ntt.tables ~p ~degree in
  let mc = Montarith.precompute p in
  let to_ba arr =
    let b = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (Array.length arr) in
    Array.iteri (fun i v -> b.{i} <- Montarith.to_mont mc v) arr;
    b
  in
  {
    p;
    n = degree;
    log_n = tb.Ntt.t_log_n;
    neg_p_inv = Montarith.neg_p_inv mc;
    psi_m = to_ba tb.Ntt.t_psi_pows;
    inv_psi_m = to_ba tb.Ntt.t_inv_psi_pows;
    n_inv_m = Montarith.to_mont mc tb.Ntt.t_n_inv;
  }

(* Per-domain transform workspace.  Kernels are leaves (they never call
   back into the pool), so one buffer per domain cannot alias a
   concurrent transform; it only ever grows. *)
let scratch_key : ba ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (Bigarray.Array1.create Bigarray.Int Bigarray.C_layout 0))

let scratch n =
  let r = Domain.DLS.get scratch_key in
  if Bigarray.Array1.dim !r < n then
    r := Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n;
  !r

external ba_get : ba -> int -> int = "%caml_ba_unsafe_ref_1"
external ba_set : ba -> int -> int -> unit = "%caml_ba_unsafe_set_1"

(* Cooley–Tukey forward stages, in place on the first n entries of
   the workspace.  Stages m = 1, 2, ..., n/2 fused in consecutive
   pairs; when log_n is odd the last stage (m = n/2, adjacent pairs)
   runs alone as radix-2.  Loop invariant: workspace values < 4p; each
   butterfly reduces its additive inputs to < 2p with a branchless
   subtract-by-2p ("d + (d asr 62 land 2p)"), the Montgomery products
   of values < 4p land in [0, p], and sums / shifted differences land
   back below 4p.  Inputs must be < 4p; outputs are < 4p and every
   caller canonicalises them in its copy-out. *)
let forward_stages t w =
  let p = t.p and n = t.n in
  let pni = t.neg_p_inv in
  let p2 = 2 * p in
  let psi = t.psi_m in
  let m = ref 1 and len = ref (n / 2) in
  while !len >= 2 do
    let m_v = !m and l = !len in
    let h = l / 2 in
    for i = 0 to m_v - 1 do
      let w1 = ba_get psi (m_v + i) in
      let w2 = ba_get psi ((2 * m_v) + (2 * i)) in
      let w3 = ba_get psi ((2 * m_v) + (2 * i) + 1) in
      let base = 2 * i * l in
      for j = base to base + h - 1 do
        let a = ba_get w j in
        let b = ba_get w (j + h) in
        let c = ba_get w (j + l) in
        let d = ba_get w (j + l + h) in
        (* Stage m: (a, c) and (b, d) against w1. *)
        let x0 = c * w1 in
        let m0 = (x0 * pni) land mask62 in
        let t0 = (((x0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31 in
        let x1 = d * w1 in
        let m1 = (x1 * pni) land mask62 in
        let t1 = (((x1 + ((m1 land mask31) * p)) lsr 31) + ((m1 lsr 31) * p)) lsr 31 in
        let ar = a - p2 in
        let ar = ar + ((ar asr 62) land p2) in
        let br = b - p2 in
        let br = br + ((br asr 62) land p2) in
        let u0 = ar + t0 in
        let v0 = ar - t0 + p2 in
        let u1 = br + t1 in
        let v1 = br - t1 + p2 in
        (* Stage 2m: (u0, u1) against w2; (v0, v1) against w3. *)
        let x2 = u1 * w2 in
        let m2 = (x2 * pni) land mask62 in
        let s0 = (((x2 + ((m2 land mask31) * p)) lsr 31) + ((m2 lsr 31) * p)) lsr 31 in
        let x3 = v1 * w3 in
        let m3 = (x3 * pni) land mask62 in
        let s1 = (((x3 + ((m3 land mask31) * p)) lsr 31) + ((m3 lsr 31) * p)) lsr 31 in
        let u0r = u0 - p2 in
        let u0r = u0r + ((u0r asr 62) land p2) in
        let v0r = v0 - p2 in
        let v0r = v0r + ((v0r asr 62) land p2) in
        ba_set w j (u0r + s0);
        ba_set w (j + h) (u0r - s0 + p2);
        ba_set w (j + l) (v0r + s1);
        ba_set w (j + l + h) (v0r - s1 + p2)
      done
    done;
    m := m_v * 4;
    len := l / 4
  done;
  if !len = 1 then begin
    (* Lone final radix-2 stage: m = n/2, adjacent pairs. *)
    let m_v = n / 2 in
    for i = 0 to m_v - 1 do
      let wt = ba_get psi (m_v + i) in
      let j = 2 * i in
      let u = ba_get w j in
      let x = ba_get w (j + 1) in
      let x0 = x * wt in
      let m0 = (x0 * pni) land mask62 in
      let v = (((x0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31 in
      let ur = u - p2 in
      let ur = ur + ((ur asr 62) land p2) in
      ba_set w j (ur + v);
      ba_set w (j + 1) (ur - v + p2)
    done
  end

(* Canonicalise a forward-stage output: [0, 4p) -> [0, p), two
   branchless conditional subtractions. *)
let[@inline] canonical p p2 x =
  let x = x - p2 in
  let x = x + ((x asr 62) land p2) in
  let x = x - p in
  x + ((x asr 62) land p)

let forward_into t ~src ~dst =
  let p = t.p and n = t.n in
  if Array.length src <> n || Array.length dst <> n then
    invalid_arg "Mont_backend.forward: wrong length";
  if n = 1 then (if dst != src then dst.(0) <- src.(0))
  else begin
    let p2 = 2 * p in
    let w = scratch n in
    for i = 0 to n - 1 do
      ba_set w i (Array.unsafe_get src i)
    done;
    forward_stages t w;
    (* Canonicalisation fused with the copy out. *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (canonical p p2 (ba_get w i))
    done
  end

(* Gentleman–Sande inverse, stages m = n/2 down to 1 fused in pairs;
   when log_n is odd the last stage (m = 1, span n/2) runs alone.
   Invariant: workspace values < 2p (sums reduced branchlessly,
   Montgomery products of differences + 2p < 4p land in [0, p]).  The
   final n^-1 scaling canonicalises and doubles as the copy out. *)
let inverse_into t ~src ~dst =
  let p = t.p and n = t.n in
  if Array.length src <> n || Array.length dst <> n then
    invalid_arg "Mont_backend.inverse: wrong length";
  if n = 1 then begin
    let x = src.(0) in
    let t0 = x * t.n_inv_m in
    let m0 = (t0 * t.neg_p_inv) land mask62 in
    let u0 = (((t0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31 in
    let u0 = u0 - p in
    dst.(0) <- u0 + ((u0 asr 62) land p)
  end
  else begin
    let pni = t.neg_p_inv in
    let p2 = 2 * p in
    let ipsi = t.inv_psi_m in
    let w = scratch n in
    for i = 0 to n - 1 do
      ba_set w i (Array.unsafe_get src i)
    done;
    (* Fused pair = stage 2m (span l) then stage m (span 2l). *)
    let m = ref (n / 4) and len = ref 1 in
    while !m >= 1 do
      let m_v = !m and l = !len in
      for i = 0 to m_v - 1 do
        let wa = ba_get ipsi ((2 * m_v) + (2 * i)) in
        let wb = ba_get ipsi ((2 * m_v) + (2 * i) + 1) in
        let wc = ba_get ipsi (m_v + i) in
        let base = 4 * i * l in
        for j = base to base + l - 1 do
          let a = ba_get w j in
          let b = ba_get w (j + l) in
          let c = ba_get w (j + (2 * l)) in
          let d = ba_get w (j + (3 * l)) in
          (* Stage 2m: (a, b) against wa; (c, d) against wb. *)
          let s0 = a + b - p2 in
          let u0 = s0 + ((s0 asr 62) land p2) in
          let x0 = (a - b + p2) * wa in
          let m0 = (x0 * pni) land mask62 in
          let v0 = (((x0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31 in
          let s1 = c + d - p2 in
          let u1 = s1 + ((s1 asr 62) land p2) in
          let x1 = (c - d + p2) * wb in
          let m1 = (x1 * pni) land mask62 in
          let v1 = (((x1 + ((m1 land mask31) * p)) lsr 31) + ((m1 lsr 31) * p)) lsr 31 in
          (* Stage m: (u0, u1) and (v0, v1) against wc. *)
          let s2 = u0 + u1 - p2 in
          ba_set w j (s2 + ((s2 asr 62) land p2));
          let x2 = (u0 - u1 + p2) * wc in
          let m2 = (x2 * pni) land mask62 in
          ba_set w
            (j + (2 * l))
            ((((x2 + ((m2 land mask31) * p)) lsr 31) + ((m2 lsr 31) * p)) lsr 31);
          let s3 = v0 + v1 - p2 in
          ba_set w (j + l) (s3 + ((s3 asr 62) land p2));
          let x3 = (v0 - v1 + p2) * wc in
          let m3 = (x3 * pni) land mask62 in
          ba_set w
            (j + (3 * l))
            ((((x3 + ((m3 land mask31) * p)) lsr 31) + ((m3 lsr 31) * p)) lsr 31)
        done
      done;
      m := m_v / 4;
      len := l * 4
    done;
    if t.log_n land 1 = 1 then begin
      (* Lone final radix-2 stage: m = 1, span n/2. *)
      let half = n / 2 in
      let w1 = ba_get ipsi 1 in
      for j = 0 to half - 1 do
        let a = ba_get w j in
        let b = ba_get w (j + half) in
        let s = a + b - p2 in
        ba_set w j (s + ((s asr 62) land p2));
        let x0 = (a - b + p2) * w1 in
        let m0 = (x0 * pni) land mask62 in
        ba_set w (j + half)
          ((((x0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31)
      done
    end;
    (* n^-1 scaling, canonicalising [0, 2p) -> [0, p), fused with the
       copy out. *)
    let ninv = t.n_inv_m in
    for i = 0 to n - 1 do
      let x = ba_get w i in
      let t0 = x * ninv in
      let m0 = (t0 * pni) land mask62 in
      let u0 = (((t0 + ((m0 land mask31) * p)) lsr 31) + ((m0 lsr 31) * p)) lsr 31 in
      let u0 = u0 - p in
      Array.unsafe_set dst i (u0 + ((u0 asr 62) land p))
    done
  end

let forward t a = forward_into t ~src:a ~dst:a
let inverse t a = inverse_into t ~src:a ~dst:a

(* BGV encryption's c_k = a_k * u + e_k for one limb, with u and every
   e_k given as signed coefficients.  Each lift (the one conditional
   add of p that Rq.of_centered_coeffs applies, or the division for a
   value outside [-p, p)) writes straight into the workspace, so no
   transform needs a copy in.  The transform of u is canonicalised into
   the second half of the workspace; each e_k's transform is
   canonicalised in the copy out, which also forms a_k * u mod p and
   adds the two with Rq.add's conditional subtraction, straight into
   dst_k.  The residues are those of lifting, transforming, multiplying
   and adding in separate passes. *)
let lift_into t w coeffs =
  let p = t.p in
  for i = 0 to t.n - 1 do
    let c = Array.unsafe_get coeffs i in
    ba_set w i (if c >= p || c < -p then Modarith.reduce p c else c + ((c asr 62) land p))
  done

let lift_mul_add t ~u terms =
  let p = t.p and n = t.n in
  let ok r = Array.length r = n in
  if not (ok u && Array.for_all (fun (a, e, dst) -> ok a && ok e && ok dst) terms) then
    invalid_arg "Mont_backend.lift_mul_add: wrong length";
  let p2 = 2 * p in
  let w = scratch (2 * n) in
  lift_into t w u;
  forward_stages t w;
  for i = 0 to n - 1 do
    ba_set w (n + i) (canonical p p2 (ba_get w i))
  done;
  Array.iter
    (fun (a, e, dst) ->
      lift_into t w e;
      forward_stages t w;
      for i = 0 to n - 1 do
        let m = Array.unsafe_get a i * ba_get w (n + i) mod p in
        let d = m + canonical p p2 (ba_get w i) - p in
        Array.unsafe_set dst i (d + ((d asr 62) land p))
      done)
    terms

(* Pointwise products are exact single reductions here as in Ntt;
   the Montgomery trick only pays inside the butterflies, where one
   operand is a precomputable constant.  Unchecked accesses are the
   only difference from Ntt's pointwise — results are identical. *)
let pointwise_into t ~dst a b =
  let n = t.n and p = t.p in
  if Array.length a <> n || Array.length b <> n || Array.length dst <> n then
    invalid_arg "Mont_backend.pointwise: wrong length";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i * Array.unsafe_get b i mod p)
  done

let pointwise_acc t ~acc a b =
  let n = t.n and p = t.p in
  if Array.length a <> n || Array.length b <> n || Array.length acc <> n then
    invalid_arg "Mont_backend.pointwise_acc: wrong length";
  for i = 0 to n - 1 do
    let m = Array.unsafe_get a i * Array.unsafe_get b i mod p in
    let s = Array.unsafe_get acc i + m in
    Array.unsafe_set acc i (if s >= p then s - p else s)
  done
