module Rng = Mycelium_util.Rng
module Pool = Mycelium_parallel.Pool
module Bigint = Mycelium_math.Bigint
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Modarith = Mycelium_math.Modarith
module Obs = Mycelium_obs.Obs
module Sha256 = Mycelium_crypto.Sha256

(* Scheme-level observability: op counters plus a sampled span on the
   homomorphic multiply (the dominant cost), one span per 64 calls.
   Call sites guard on [Obs.enabled] so the disabled path is a single
   branch with no allocation. *)
let m_encrypts = Obs.Metrics.counter Obs.Names.bgv_encrypts
let m_ct_muls = Obs.Metrics.counter Obs.Names.bgv_ciphertext_muls
let m_relins = Obs.Metrics.counter Obs.Names.bgv_relinearizations
let ct_mul_sampler = Obs.sampler ~every:64

type ctx = { p : Params.t; basis : Rns.t }

let make_ctx p =
  Params.validate p;
  let basis =
    Rns.standard ~degree:p.Params.degree ~prime_bits:p.Params.prime_bits
      ~levels:p.Params.levels
  in
  (* t must be invertible mod q for the scheme to be non-degenerate. *)
  Array.iter
    (fun prime ->
      if p.Params.plain_modulus mod prime = 0 then
        invalid_arg "Bgv.make_ctx: plain modulus shares a factor with q")
    (Rns.primes basis);
  { p; basis }

let params ctx = ctx.p
let basis ctx = ctx.basis
let plain_modulus ctx = ctx.p.Params.plain_modulus
let modulus_bits ctx = Rns.modulus_bits ctx.basis

type secret_key = { s : Rq.t }
type public_key = { p0 : Rq.t; p1 : Rq.t }

type ciphertext = { comps : Rq.t array }

(* Key-switching keys for s^2 .. s^max, one pair per power and prime,
   indexed [power - 2].[prime]: k0 = -(a s + t e) + s^k u_j and k1 = a,
   where u_j is the RNS gadget element with residue 1 at limb j and 0
   elsewhere. *)
type relin_key = { k0 : Rq.t array array; k1 : Rq.t array array }

let relin_max_degree rk = Array.length rk.k0 + 1
let relin_key_pairs rk = Array.fold_left (fun acc row -> acc + Array.length row) 0 rk.k0

let plaintext_coeffs ctx pt =
  if not (Int.equal (Plaintext.plain_modulus pt) ctx.p.Params.plain_modulus) then
    invalid_arg "Bgv: plaintext modulus mismatch";
  let m = Plaintext.coeffs pt in
  if Array.length m > ctx.p.Params.degree then
    invalid_arg "Bgv: plaintext has more coefficients than the ring degree";
  m

let plaintext_to_rq ctx pt = Rq.of_centered_coeffs ctx.basis (plaintext_coeffs ctx pt)

let keygen ctx rng =
  let s = Rq.sample_ternary ctx.basis rng in
  let a = Rq.random_uniform ctx.basis rng in
  let e = Rq.sample_cbd ctx.basis ~eta:ctx.p.Params.error_eta rng in
  let te = Rq.mul_scalar e ctx.p.Params.plain_modulus in
  let p0 = Rq.neg (Rq.add (Rq.mul a s) te) in
  (* The public key (and s, via the mul above) is shared by every
     device encryption, and those run under the domain pool: pin the
     evaluation-domain representation here, outside any parallel
     region, so encrypt never converts shared state. *)
  Rq.force_eval p0;
  Rq.force_eval a;
  Rq.force_eval s;
  ({ s }, { p0; p1 = a })

(* c0 = p0·u + (t·e1 + m) and c1 = p1·u + t·e2, with u, e1 and e2
   drawn in that order.  t·e1 + m and t·e2 are summed as integers
   (|t·e| <= t·eta fits an int) and each is lifted once: the lift is
   exact mod every prime, so the residues are those of lifting the
   terms and adding in R_q.  Rq.mul_add_centered then lifts and
   transforms u once per limb and each error sum straight into the
   ciphertext's own rows, so an encryption allocates its 2L output rows
   and the three coefficient arrays, and nothing else of size N. *)
let encrypt ctx rng pk pt =
  if Obs.enabled () then Obs.Metrics.incr m_encrypts;
  let m = plaintext_coeffs ctx pt in
  let u = Rq.sample_ternary_coeffs ctx.basis rng in
  let eta = ctx.p.Params.error_eta in
  let t = ctx.p.Params.plain_modulus in
  let n = Rns.degree ctx.basis in
  let e1 = Array.make n 0 and e2 = Array.make n 0 in
  Rng.fill_centered_binomial rng ~eta e1;
  Rng.fill_centered_binomial rng ~eta e2;
  for i = 0 to n - 1 do
    e1.(i) <- t * e1.(i);
    e2.(i) <- t * e2.(i)
  done;
  Array.iteri (fun i c -> e1.(i) <- e1.(i) + c) m;
  { comps = Rq.mul_add_centered ~u [| (pk.p0, e1); (pk.p1, e2) |] }

let encrypt_value ctx rng pk v =
  encrypt ctx rng pk
    (Plaintext.monomial ~plain_modulus:ctx.p.Params.plain_modulus ~degree:ctx.p.Params.degree
       ~exponent:v)

let encrypt_zero_polynomial ctx rng pk =
  encrypt ctx rng pk
    (Plaintext.zero ~plain_modulus:ctx.p.Params.plain_modulus ~degree:ctx.p.Params.degree)

let degree ct = Array.length ct.comps - 1
let components ct = ct.comps

(* c(s) = c_0 + c_1 s + ... + c_D s^D by Horner's rule. *)
let eval_at_secret ct s =
  let d = degree ct in
  let acc = ref ct.comps.(d) in
  for i = d - 1 downto 0 do
    acc := Rq.add (Rq.mul !acc s) ct.comps.(i)
  done;
  !acc

let decode_noisy ctx v =
  let t = ctx.p.Params.plain_modulus in
  Plaintext.create ~plain_modulus:t (Rq.centered_mod v ~modulus:t)

let decrypt ctx sk ct = decode_noisy ctx (eval_at_secret ct sk.s)

let pad comps n =
  if Array.length comps >= n then comps
  else begin
    let basis = Rq.basis_of comps.(0) in
    Array.init n (fun i -> if i < Array.length comps then comps.(i) else Rq.zero basis)
  end

let add a b =
  let n = max (Array.length a.comps) (Array.length b.comps) in
  let ca = pad a.comps n and cb = pad b.comps n in
  { comps = Array.init n (fun i -> Rq.add ca.(i) cb.(i)) }

let sub_plain ctx ct pt =
  let m = plaintext_to_rq ctx pt in
  let comps = Array.copy ct.comps in
  comps.(0) <- Rq.sub comps.(0) m;
  { comps }

let mul_impl a b =
  let da = Array.length a.comps and db = Array.length b.comps in
  (* Forward-transform every component once, before the fan-out: the
     degree-k cross terms then reuse the cached evaluation forms (a
     component appears in up to min(da,db) diagonals), and no two pool
     tasks race to convert a shared component. *)
  Array.iter Rq.force_eval a.comps;
  Array.iter Rq.force_eval b.comps;
  (* Each output component of the tensor product is an independent
     convolution diagonal, computed as a fused dot product of the two
     component slices; dot accumulates in ascending-i order so the
     result is identical at any domain count. *)
  let out =
    Pool.init (Pool.default ()) (da + db - 1) (fun k ->
        let lo = max 0 (k - db + 1) and hi = min (da - 1) k in
        let xs = Array.sub a.comps lo (hi - lo + 1) in
        let ys = Array.init (hi - lo + 1) (fun i -> b.comps.(k - lo - i)) in
        Rq.dot xs ys)
  in
  { comps = out }

let mul a b =
  if not (Obs.enabled ()) then mul_impl a b
  else begin
    Obs.Metrics.incr m_ct_muls;
    Obs.sampled_span ct_mul_sampler Obs.Names.bgv_mul
      ~attrs:
        [ ("da", Obs.Json.Int (Array.length a.comps));
          ("db", Obs.Json.Int (Array.length b.comps)) ]
      (fun () -> mul_impl a b)
  end

let mul_plain ctx ct pt =
  let m = plaintext_to_rq ctx pt in
  { comps = Array.map (fun c -> Rq.mul c m) ct.comps }

let mul_many = function
  | [] -> invalid_arg "Bgv.mul_many: empty list"
  | [ ct ] -> ct
  | cts ->
    (* Balanced product tree keeps the degree identical but reduces the
       depth-induced estimate pessimism. *)
    let rec round = function
      | [] -> []
      | [ x ] -> [ x ]
      | x :: y :: rest -> mul x y :: round rest
    in
    let rec go = function [ x ] -> x | xs -> go (round xs) in
    go cts

(* --- relinearization ------------------------------------------------ *)

let relin_keygen ctx rng sk ~max_degree =
  if max_degree < 2 then invalid_arg "Bgv.relin_keygen: max_degree must be >= 2";
  let t = ctx.p.Params.plain_modulus in
  let levels = Rns.level_count ctx.basis in
  (* Powers of the secret: s^2 .. s^max_degree. *)
  let powers = Array.make (max_degree - 1) sk.s in
  let cur = ref sk.s in
  for i = 0 to max_degree - 2 do
    cur := Rq.mul !cur sk.s;
    powers.(i) <- !cur
  done;
  let keys =
    Array.map
      (fun s_pow ->
        Array.init levels (fun j ->
            let a = Rq.random_uniform ctx.basis rng in
            let e = Rq.mul_scalar (Rq.sample_cbd ctx.basis ~eta:ctx.p.Params.error_eta rng) t in
            let u_j = Array.init levels (fun i -> if i = j then 1 else 0) in
            let k0 =
              Rq.add (Rq.neg (Rq.add (Rq.mul a sk.s) e)) (Rq.mul_scalar_residues s_pow u_j)
            in
            (* Every relinearization multiplies key rows into digits:
               pin them to the evaluation domain once, here. *)
            Rq.force_eval k0;
            Rq.force_eval a;
            (k0, a)))
      powers
  in
  { k0 = Array.map (Array.map fst) keys; k1 = Array.map (Array.map snd) keys }

(* c_k = sum_j D_j u_j (mod q) for the RNS digits D_j of c_k, so
   sum_j D_j (k0_j + k1_j s) = s^k c_k - t sum_j D_j e_j: each power is
   switched to degree 1 at the cost of that small noise.  Every
   digit-by-key product of every power lands in one fused dot per
   half. *)
let relinearize _ctx rk ct =
  let d = degree ct in
  if d <= 1 then ct
  else if d > relin_max_degree rk then
    invalid_arg "Bgv.relinearize: ciphertext degree exceeds relin key"
  else begin
    if Obs.enabled () then Obs.Metrics.incr m_relins;
    let digits = Array.concat (List.init (d - 1) (fun k -> Rq.rns_digits ct.comps.(k + 2))) in
    let keys half = Array.concat (Array.to_list (Array.sub half 0 (d - 1))) in
    let c0 = Rq.add ct.comps.(0) (Rq.dot digits (keys rk.k0)) in
    let c1 = Rq.add ct.comps.(1) (Rq.dot digits (keys rk.k1)) in
    { comps = [| c0; c1 |] }
  end

(* --- noise measurement ---------------------------------------------- *)

let noise_budget ctx sk ct =
  let v = eval_at_secret ct sk.s in
  let coeffs = Rq.to_bigint_coeffs v in
  (* The invariant noise is v with the (tiny, < t) message folded in;
     budget = bits(q/2) - bits(max |v_i|). *)
  let max_bits = Array.fold_left (fun acc c -> max acc (Bigint.num_bits c)) 0 coeffs in
  modulus_bits ctx - 1 - max_bits

(* --- serialization --------------------------------------------------- *)

(* The wire form, in little-endian int32 fields: the component count,
   then per component its representation tag (0 = Coeff, 1 = Eval), its
   row count, and per row the row length followed by the residues.
   Rows go out in whatever domain the component is resident in, so the
   format costs no transform in either direction; the pipeline computes
   representations deterministically, so the bytes (and the hashes and
   comparisons over them) are deterministic too. *)
let wire_length ~components ~levels ~degree = 4 + (components * (8 + (levels * (4 + (4 * degree)))))

let ciphertext_bytes ctx ~degree =
  wire_length ~components:(degree + 1) ~levels:(Rns.level_count ctx.basis)
    ~degree:(Rns.degree ctx.basis)

let repr_tag comp = match Rq.repr_of comp with Rq.Coeff -> 0 | Rq.Eval -> 1

(* The one writer of the wire form.  It fills [buf] (a length that is a
   multiple of 4) from the front and hands each full buffer, and the
   final partial one, to [flush] with the number of bytes written. *)
let write_wire ct buf flush =
  let cap = Bytes.length buf in
  let pos = ref 0 in
  let put v =
    if !pos = cap then begin
      flush cap;
      pos := 0
    end;
    Bytes.set_int32_le buf !pos (Int32.of_int v);
    pos := !pos + 4
  in
  put (Array.length ct.comps);
  Array.iter
    (fun comp ->
      let rows = Rq.residues comp in
      put (repr_tag comp);
      put (Array.length rows);
      Array.iter
        (fun row ->
          put (Array.length row);
          let i = ref 0 in
          while !i < Array.length row do
            if !pos = cap then begin
              flush cap;
              pos := 0
            end;
            let take = min (Array.length row - !i) ((cap - !pos) / 4) in
            for k = 0 to take - 1 do
              Bytes.set_int32_le buf (!pos + (4 * k)) (Int32.of_int row.(!i + k))
            done;
            pos := !pos + (4 * take);
            i := !i + take
          done)
        rows)
    ct.comps;
  flush !pos

let serialize ct =
  let basis = Rq.basis_of ct.comps.(0) in
  let buf =
    Bytes.create
      (wire_length ~components:(Array.length ct.comps) ~levels:(Rns.level_count basis)
         ~degree:(Rns.degree basis))
  in
  write_wire ct buf ignore;
  buf

let hash_into h ct =
  let chunk = Bytes.create 1024 in
  write_wire ct chunk (fun len -> Sha256.update_sub h chunk ~pos:0 ~len)

let rows_equal ra rb =
  Int.equal (Array.length ra) (Array.length rb)
  && begin
    let same = ref true and i = ref 0 in
    while !same && !i < Array.length ra do
      same := Int.equal ra.(!i) rb.(!i);
      incr i
    done;
    !same
  end

(* Residues are below 2^31, so equal int32 fields are equal ints. *)
let wire_equal a b =
  Int.equal (Array.length a.comps) (Array.length b.comps)
  && Array.for_all2
       (fun x y ->
         Int.equal (repr_tag x) (repr_tag y)
         &&
         let rx = Rq.residues x and ry = Rq.residues y in
         Int.equal (Array.length rx) (Array.length ry) && Array.for_all2 rows_equal rx ry)
       a.comps b.comps

let deserialize ctx data =
  let pos = ref 0 in
  let len = Bytes.length data in
  let read_i32 () =
    if !pos + 4 > len then raise Exit
    else begin
      let v = Int32.to_int (Bytes.get_int32_le data !pos) in
      pos := !pos + 4;
      v
    end
  in
  try
    let ncomps = read_i32 () in
    if ncomps < 1 || ncomps > 64 then raise Exit;
    let comps =
      Array.init ncomps (fun _ ->
          let repr =
            match read_i32 () with 0 -> Rq.Coeff | 1 -> Rq.Eval | _ -> raise Exit
          in
          let nrows = read_i32 () in
          if not (Int.equal nrows (Rns.level_count ctx.basis)) then raise Exit;
          let rows =
            Array.init nrows (fun j ->
                let rowlen = read_i32 () in
                if not (Int.equal rowlen (Rns.degree ctx.basis)) then raise Exit;
                let prime = (Rns.primes ctx.basis).(j) in
                Array.init rowlen (fun _ ->
                    let v = read_i32 () in
                    if v < 0 || v >= prime then raise Exit;
                    v))
          in
          Rq.of_residues ~repr ctx.basis rows)
    in
    if !pos <> len then raise Exit;
    Some { comps }
  with Exit -> None

(* --- threshold-decryption hooks -------------------------------------- *)

let secret_poly sk = sk.s
let secret_key_of_poly _ctx s = { s }
