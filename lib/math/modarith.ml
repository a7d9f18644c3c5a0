let add p a b =
  let s = a + b in
  if s >= p then s - p else s

let sub p a b =
  let d = a - b in
  if d < 0 then d + p else d

let neg p a = if a = 0 then 0 else p - a

let mul p a b = a * b mod p

let pow p base e =
  if e < 0 then invalid_arg "Modarith.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul p acc base else acc in
      go acc (mul p base base) (e lsr 1)
    end
  in
  go 1 (base mod p) e

let reduce p x =
  let r = x mod p in
  if r < 0 then r + p else r

let inv p a =
  let a = reduce p a in
  if a = 0 then invalid_arg "Modarith.inv: zero has no inverse";
  (* Fermat: a^(p-2) mod p for prime p. *)
  pow p a (p - 2)

(* Deterministic Miller–Rabin for word-sized inputs. The operand bound
   [n < 2^31] keeps every product inside OCaml's native int. *)
let is_prime n =
  if n >= 1 lsl 31 then invalid_arg "Modarith.is_prime: operand too large";
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    let d = ref (n - 1) and r = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr r
    done;
    let witness a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = ref (pow n a !d) in
        if !x = 1 || !x = n - 1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to !r - 1 do
               x := mul n !x !x;
               if !x = n - 1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      end
    in
    (* These witnesses are deterministic for all n < 3.2e18; far beyond
       the 2^31 operand bound. *)
    not (List.exists witness [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ])
  end

let factor_distinct n =
  (* Distinct prime factors by trial division; inputs here are p - 1 for
     word-sized p, so this is fast enough. *)
  let rec go n d acc =
    if d * d > n then if n > 1 then n :: acc else acc
    else if n mod d = 0 then begin
      let rec strip n = if n mod d = 0 then strip (n / d) else n in
      go (strip n) (d + 1) (d :: acc)
    end
    else go n (d + 1) acc
  in
  go n 2 []

let primitive_root p =
  if p = 2 then 1
  else begin
    let factors = factor_distinct (p - 1) in
    let is_generator g =
      List.for_all (fun q -> pow p g ((p - 1) / q) <> 1) factors
    in
    let rec search g =
      if g >= p then invalid_arg "Modarith.primitive_root: no generator (p not prime?)"
      else if is_generator g then g
      else search (g + 1)
    in
    search 2
  end

let nth_root_of_unity p n =
  if (p - 1) mod n <> 0 then
    invalid_arg "Modarith.nth_root_of_unity: n does not divide p-1";
  let g = primitive_root p in
  pow p g ((p - 1) / n)

(* --- Shoup precomputed-quotient multiplication ----------------------- *)

(* For a constant multiplicand w (an NTT twiddle), w' = floor(w*2^62/p)
   turns "x*w mod p" into two multiplies, shifts and one conditional
   subtraction — no hardware division.  Everything below relies on the
   module-wide operand bound p < 2^31, which keeps every intermediate
   inside OCaml's 63-bit native int (derivation in DESIGN.md §9). *)

let shoup_precompute p w =
  if p >= 1 lsl 31 then invalid_arg "Modarith.shoup_precompute: modulus too large";
  let w = reduce p w in
  (* floor(w * 2^62 / p) without a 93-bit intermediate: divide in two
     31-bit halves.  w*2^31 < 2^62 fits; the second step folds the
     remainder back in, so the composite quotient is the exact floor. *)
  let q1 = (w lsl 31) / p in
  let r1 = (w lsl 31) - (q1 * p) in
  (q1 lsl 31) + ((r1 lsl 31) / p)

let shoup_mul p w w' x =
  (* q = floor(x * w' / 2^62), split so x*w' (up to 2^93) never
     materialises: x*(hi 2^31 + lo)/2^62 = (x*hi + floor(x*lo/2^31))/2^31
     — exact because the discarded fraction of x*lo/2^31 contributes
     less than one unit after the outer shift.  Then r = x*w - q*p is in
     [0, 2p) (standard Shoup bound given x < 2^31), so one conditional
     subtraction completes the reduction. *)
  let q = ((x * (w' lsr 31)) + ((x * (w' land 0x7FFFFFFF)) lsr 31)) lsr 31 in
  let r = (x * w) - (q * p) in
  if r >= p then r - p else r
