module Bigint = Mycelium_math.Bigint
module Rng = Mycelium_util.Rng

(* A fixed 256-bit safe prime (generated once with
   Bigint.random_safe_prime, seed 20260706). 256 bits is far below
   cryptographic strength — deliberately: the simulation spends one
   modexp per PEnc across thousands of simulated devices, and the
   protocol logic is what matters here. Swap in RFC 3526 constants for
   a production build. *)
let p =
  Bigint.of_hex "90109c1cdccd1bf85cde95dee93ea51985ddccdef6b802a9ad2d527a156ad5bb"

(* q = (p-1)/2 is prime; g = 4 generates the order-q subgroup of
   quadratic residues. *)
let q = Bigint.shift_right (Bigint.sub p Bigint.one) 1
let g = Bigint.of_int 4

let group_bytes = 32 (* 256 bits *)

let encode_element e =
  let b = Bigint.to_bytes_be e in
  let out = Bytes.make group_bytes '\x00' in
  Bytes.blit b 0 out (group_bytes - Bytes.length b) (Bytes.length b);
  out

(* A public key is kept as its 32-byte big-endian encoding: the map
   builder range-checks, hashes and stores keys as bytes, and only PEnc
   reads the group element. *)
type public_key = bytes
type private_key = { x : Bigint.t }

let p_bytes = encode_element p

let generate rng =
  let x = Bigint.add (Bigint.random rng (Bigint.sub q Bigint.one)) Bigint.one in
  (encode_element (Bigint.mod_pow g x p), { x })

let generate_insecure rng =
  (* A uniform group-range element instead of g^x: skips the modexp
     (~500µs each), which dominates simulator creation at 10^6 devices.
     The pk parses, fingerprints and range-checks like a real key, but
     decryption under it fails — callers must never run PEnc exchanges
     against these keys (the mixnet gates this behind
     [fast_keys && fast_setup]). *)
  let x = Bigint.add (Bigint.random rng (Bigint.sub q Bigint.one)) Bigint.one in
  let pk = Bigint.add (Bigint.random rng (Bigint.sub p Bigint.one)) Bigint.one in
  (encode_element pk, { x })

let kdf shared =
  Sha256.digest (encode_element shared)

let zero_nonce = Bytes.make Chacha20.nonce_size '\x00'

let encrypt rng pk msg =
  let y = Bigint.add (Bigint.random rng (Bigint.sub q Bigint.one)) Bigint.one in
  let eph = Bigint.mod_pow g y p in
  let shared = Bigint.mod_pow (Bigint.of_bytes_be pk) y p in
  (* Fresh key per encryption, so a fixed nonce is safe. *)
  let sealed = Aead.seal_nonce ~key:(kdf shared) ~nonce:zero_nonce msg in
  Bytes.cat (encode_element eph) sealed

let ciphertext_overhead = group_bytes + Aead.overhead

let decrypt sk ct =
  if Bytes.length ct < ciphertext_overhead then None
  else begin
    let eph = Bigint.of_bytes_be (Bytes.sub ct 0 group_bytes) in
    if Bigint.compare eph p >= 0 || Bigint.sign eph <= 0 then None
    else begin
      let shared = Bigint.mod_pow eph sk.x p in
      Aead.open_nonce ~key:(kdf shared) ~nonce:zero_nonce
        (Bytes.sub ct group_bytes (Bytes.length ct - group_bytes))
    end
  end

let pub_to_bytes pk = Bytes.copy pk

(* Equal-length big-endian strings compare as the numbers they encode. *)
let pub_of_bytes b =
  if
    Bytes.length b <> group_bytes
    || Bytes.for_all (fun c -> Char.equal c '\x00') b
    || Bytes.compare b p_bytes >= 0
  then None
  else Some (Bytes.copy b)

let fingerprint pk = Sha256.digest pk
