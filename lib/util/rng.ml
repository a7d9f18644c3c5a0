type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* SplitMix64 output function of a state: two xor-shift multiplies
   and a final xor-shift (variant "mix13"). *)
let[@inline] mix z =
  Int64_ops.(
    let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B9L in
    let z = (z lxor (z lsr 27)) * 0x94D049BB133111EBL in
    z lxor (z lsr 31))

(* One draw: the additive step, then the output function. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int64 = next_int64

let mix64 a b =
  (* One SplitMix64 step keyed by [a] with [b] folded into the state:
     a stateless hash-combine for deriving decision keys. *)
  let t = { state = Int64.logxor a (Int64.mul b 0xFF51AFD7ED558CCDL) } in
  next_int64 t

type purpose =
  | Genesis
  | Byzantine_set
  | Contribution_row
  | Origin_aggregate
  | Audit_probe
  | Decrypt_session
  | Committee_rotation
  | Query_noise
  | Member_noise
  | Fault_churn
  | Fault_drop
  | Fault_delay
  | Fault_forge
  | Mix_malicious
  | Mix_device_key
  | Mix_path
  | Mix_link_key
  | Mix_churn
  | Mix_shuffle
  | Mix_dummy
  | Mix_audit

(* Four ASCII bytes, big-endian.  A tag names a stream family for
   good: changing a fault tag would move every fault decision, and
   with them the chaos suite's expected counts. *)
let tag p =
  let name =
    match p with
    | Genesis -> "GENS"
    | Byzantine_set -> "BYZS"
    | Contribution_row -> "CROW"
    | Origin_aggregate -> "OAGG"
    | Audit_probe -> "AUDT"
    | Decrypt_session -> "DSES"
    | Committee_rotation -> "CROT"
    | Query_noise -> "QNOI"
    | Member_noise -> "MNOI"
    | Fault_churn -> "CHUR"
    | Fault_drop -> "DROP"
    | Fault_delay -> "DELA"
    | Fault_forge -> "FORG"
    | Mix_malicious -> "MMAL"
    | Mix_device_key -> "MDEV"
    | Mix_path -> "MPTH"
    | Mix_link_key -> "MKEY"
    | Mix_churn -> "MCHU"
    | Mix_shuffle -> "MSHF"
    | Mix_dummy -> "MDUM"
    | Mix_audit -> "MAUD"
  in
  String.fold_left
    (fun acc c -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int (Char.code c)))
    0L name

let key root purpose coords =
  List.fold_left (fun acc v -> mix64 acc (Int64.of_int v)) (mix64 root (tag purpose)) coords

let keyed root purpose coords = create (key root purpose coords)

let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top multiple of [n] below 2^62. *)
  let limit = 0x3FFF_FFFF_FFFF_FFFF / n * n in
  let rec draw () =
    let v = bits62 t in
    if v < limit then v mod n else draw ()
  in
  draw ()

(* The bulk draws run the generator on an unboxed local copy of the
   state and store it back once, so a draw neither boxes a state nor
   allocates a closure; the rejection limit is divided out once per
   call.  Each makes exactly the single draws' steps, in their order. *)
let fill_int t n a =
  if n <= 0 then invalid_arg "Rng.fill_int: bound must be positive";
  let limit = 0x3FFF_FFFF_FFFF_FFFF / n * n in
  let s = ref t.state in
  for i = 0 to Array.length a - 1 do
    let v = ref limit in
    while !v >= limit do
      s := Int64.add !s golden_gamma;
      v := Int64.to_int (Int64.shift_right_logical (mix !s) 2)
    done;
    Array.unsafe_set a i (!v mod n)
  done;
  t.state <- !s

let fill_centered_binomial t ~eta a =
  let s = ref t.state in
  for i = 0 to Array.length a - 1 do
    let acc = ref 0 in
    for _ = 1 to eta do
      s := Int64.add !s golden_gamma;
      acc := !acc + Int64.to_int (Int64.logand (mix !s) 1L);
      s := Int64.add !s golden_gamma;
      acc := !acc - Int64.to_int (Int64.logand (mix !s) 1L)
    done;
    Array.unsafe_set a i !acc
  done;
  t.state <- !s

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float v *. 0x1.0p-53

let bernoulli t p = float t < p

let fill t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Rng.fill";
  let full = len / 8 in
  for i = 0 to full - 1 do
    Bytes.set_int64_le b (pos + (i * 8)) (next_int64 t)
  done;
  let rem = len - (full * 8) in
  if rem > 0 then begin
    let v = ref (next_int64 t) in
    for i = 0 to rem - 1 do
      Bytes.set_uint8 b (pos + (full * 8) + i) (Int64.to_int (Int64.logand !v 0xFFL));
      v := Int64.shift_right_logical !v 8
    done
  end

let bytes t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Rng.sample_without_replacement";
  if k * 3 >= n then begin
    (* Dense case: shuffle a full index array and take a prefix. *)
    let a = Array.init n (fun i -> i) in
    shuffle t a;
    Array.sub a 0 k
  end else begin
    (* Sparse case: rejection with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda must be positive";
  -.log1p (-.float t) /. lambda

let laplace t b =
  if b <= 0. then invalid_arg "Rng.laplace: scale must be positive";
  (* Difference of two exponentials avoids the u=0.5 singularity of the
     inverse-CDF form. *)
  let e1 = exponential t 1.0 and e2 = exponential t 1.0 in
  b *. (e1 -. e2)

let gaussian t sigma =
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0,1]";
  if Float.equal p 1. then 0
  else
    let u = float t in
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))
