module Rng = Mycelium_util.Rng

(* Sign-magnitude representation. [mag] is little-endian with 26-bit
   limbs and no trailing zero limbs; zero is { sign = 0; mag = [||] }.
   Invariant: sign = 0 iff mag is empty, otherwise sign is +1 or -1. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int v =
  if v = 0 then zero
  else begin
    let sign = if v < 0 then -1 else 1 in
    let v = abs v in
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let n = count 0 v in
    let mag = Array.make n 0 in
    let rec fill i v =
      if v <> 0 then begin
        mag.(i) <- v land limb_mask;
        fill (i + 1) (v lsr limb_bits)
      end
    in
    fill 0 v;
    { sign; mag }
  end

let one = of_int 1

let sign t = t.sign

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

(* lint: allow poly-compare — Bigint's own typed compare, shadowing Stdlib's *)
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  out

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* ai * b.(j) <= (2^26-1)^2 < 2^52; adding out and carry keeps
           the accumulator below 2^53, well inside the native int. *)
        let v = (ai * b.(j)) + out.(i + j) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    end
  done;
  out

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int a v = mul a (of_int v)
let add_int a v = add a (of_int v)

let num_bits t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + bits 0 top
  end

let testbit t i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr off) land 1 = 1

let shift_right t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t.mag in
    if limbs >= n then zero
    else begin
      let m = n - limbs in
      let out = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = t.mag.(i + limbs) lsr bits in
        let hi = if bits > 0 && i + limbs + 1 < n then (t.mag.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize t.sign out
    end
  end

(* Knuth TAOCP vol.2 Algorithm D on 26-bit limbs. Returns magnitudes. *)
let divmod_mag u v =
  let lv = Array.length v in
  assert (lv > 0);
  if compare_mag u v < 0 then ([| 0 |], Array.copy u)
  else if lv = 1 then begin
    (* Short division by a single limb. *)
    let d = v.(0) in
    let lu = Array.length u in
    let q = Array.make lu 0 in
    let r = ref 0 in
    for i = lu - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor u.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (q, [| !r |])
  end
  else begin
    (* D1: normalize so the top limb of v is >= base/2. *)
    let rec shift_of acc v = if v >= base / 2 then acc else shift_of (acc + 1) (v lsl 1) in
    let s = shift_of 0 v.(lv - 1) in
    let shl a k len =
      (* Shift magnitude a left by k (<26) bits into an array of given length. *)
      let out = Array.make len 0 in
      let la = Array.length a in
      for i = 0 to la - 1 do
        let x = a.(i) lsl k in
        out.(i) <- out.(i) lor (x land limb_mask);
        if i + 1 < len then out.(i + 1) <- x lsr limb_bits
      done;
      out
    in
    let lu = Array.length u in
    let un = shl u s (lu + 1) in
    let vn = shl v s lv in
    let m = lu - lv in
    let q = Array.make (m + 1) 0 in
    let v_top = vn.(lv - 1) and v_second = vn.(lv - 2) in
    for j = m downto 0 do
      (* D3: estimate qhat from the top two limbs of the current window. *)
      let num = (un.(j + lv) lsl limb_bits) lor un.(j + lv - 1) in
      let qhat = ref (num / v_top) and rhat = ref (num mod v_top) in
      let continue_adjust = ref true in
      while !continue_adjust do
        if !qhat >= base || !qhat * v_second > (!rhat lsl limb_bits) lor un.(j + lv - 2) then begin
          decr qhat;
          rhat := !rhat + v_top;
          if !rhat >= base then continue_adjust := false
        end
        else continue_adjust := false
      done;
      (* D4: multiply-subtract qhat * vn from the window. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to lv - 1 do
        let prod = (!qhat * vn.(i)) + !carry in
        carry := prod lsr limb_bits;
        let d = un.(i + j) - (prod land limb_mask) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + lv) - !carry - !borrow in
      if d < 0 then begin
        (* D6: qhat was one too large; add back. *)
        un.(j + lv) <- d + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to lv - 1 do
          let s2 = un.(i + j) + vn.(i) + !carry2 in
          un.(i + j) <- s2 land limb_mask;
          carry2 := s2 lsr limb_bits
        done;
        un.(j + lv) <- (un.(j + lv) + !carry2) land limb_mask
      end
      else un.(j + lv) <- d;
      q.(j) <- !qhat
    done;
    (* D8: denormalize the remainder. *)
    let r = Array.make lv 0 in
    for i = 0 to lv - 1 do
      let lo = un.(i) lsr s in
      let hi = if s > 0 && i + 1 <= lv then (un.(i + 1) lsl (limb_bits - s)) land limb_mask else 0 in
      r.(i) <- lo lor hi
    done;
    (q, r)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) qm in
    let r = normalize a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let rem_int a p =
  if p <= 0 || p >= 1 lsl 31 then invalid_arg "Bigint.rem_int: modulus out of range";
  (* Horner over limbs: the accumulator stays below 2^31 * 2^26. *)
  let r = ref 0 in
  for i = Array.length a.mag - 1 downto 0 do
    r := (((!r lsl limb_bits) lor a.mag.(i))) mod p
  done;
  if a.sign < 0 && !r <> 0 then p - !r else !r

let to_int_opt t =
  if num_bits t > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    Some (if t.sign < 0 then - !v else !v)
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value too large"

let mod_pow base_v e m =
  if m.sign <= 0 then invalid_arg "Bigint.mod_pow: modulus must be positive";
  if e.sign < 0 then invalid_arg "Bigint.mod_pow: negative exponent";
  let nbits = num_bits e in
  let result = ref one and b = ref (erem base_v m) in
  for i = 0 to nbits - 1 do
    if testbit e i then result := erem (mul !result !b) m;
    b := erem (mul !b !b) m
  done;
  !result

let of_bytes_be b =
  let acc = ref zero in
  Bytes.iter (fun c -> acc := add_int (mul_int !acc 256) (Char.code c)) b;
  !acc

let to_bytes_be t =
  let nbytes = (num_bits t + 7) / 8 in
  let out = Bytes.create nbytes in
  let v = ref (abs t) in
  for i = nbytes - 1 downto 0 do
    let q, r = divmod !v (of_int 256) in
    Bytes.set_uint8 out i (to_int r);
    v := q
  done;
  out

let of_hex s =
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add_int (mul_int !acc 16) (Char.code c - Char.code '0')
      | 'a' .. 'f' -> acc := add_int (mul_int !acc 16) (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> acc := add_int (mul_int !acc 16) (Char.code c - Char.code 'A' + 10)
      | '_' -> ()
      | _ -> invalid_arg "Bigint.of_hex: bad digit")
    s;
  !acc

let random rng bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random: bound must be positive";
  let bits = num_bits bound in
  let nlimbs = (bits + limb_bits - 1) / limb_bits in
  let top_bits = bits - ((nlimbs - 1) * limb_bits) in
  let top_mask = (1 lsl top_bits) - 1 in
  (* Rejection sampling: uniform among bit-length-bounded values. *)
  let rec draw () =
    let mag = Array.init nlimbs (fun _ -> Rng.bits62 rng land limb_mask) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land top_mask;
    let v = normalize 1 mag in
    (* lint: allow poly-compare — Bigint's own typed compare, shadowing Stdlib's *)
    if compare v bound < 0 then v else draw ()
  in
  draw ()
