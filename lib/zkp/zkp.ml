module Rng = Mycelium_util.Rng
module Sha256 = Mycelium_crypto.Sha256
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext

type srs = { trapdoor : bytes }

let setup rng = { trapdoor = Rng.bytes rng 32 }

type proof = { statement : bytes; mac : bytes }

let proof_to_bytes p = Bytes.cat p.statement p.mac

let proof_of_bytes b =
  if Bytes.length b <> 64 then None
  else Some { statement = Bytes.sub b 0 32; mac = Bytes.sub b 32 32 }

(* A statement digest: the prefix fields, then the wire form of each
   ciphertext in order, streamed into one hash. *)
let statement_digest prefix cts =
  let h = Sha256.init () in
  List.iter (Sha256.update h) prefix;
  List.iter (Bgv.hash_into h) cts;
  Sha256.finalize h

let sign srs statement = Sha256.hmac ~key:srs.trapdoor statement

let check srs statement proof =
  Bytes.equal proof.statement statement && Bytes.equal proof.mac (sign srs statement)

(* The §4.6 plaintext structure: zero everywhere, or exactly one
   coefficient and it equals 1. *)
let plaintext_admissible pt =
  match Plaintext.is_monomial pt with
  | None -> Array.for_all (fun c -> c = 0) (Plaintext.coeffs pt)
  | Some (_, c) -> c = 1

let contribution_statement ct = statement_digest [ Bytes.of_string "contribution" ] [ ct ]

let prove_contribution srs ctx pk ~plaintext ~seed ct =
  if not (plaintext_admissible plaintext) then None
  else begin
    (* Re-run the encryption circuit on the witness. *)
    let reenc = Bgv.encrypt ctx (Rng.create seed) pk plaintext in
    if not (Bgv.wire_equal reenc ct) then None
    else begin
      let statement = contribution_statement ct in
      Some { statement; mac = sign srs statement }
    end
  end

let verify_contribution srs _ctx ct proof = check srs (contribution_statement ct) proof

let transcript_statement ~label ~context ~inputs ~output =
  statement_digest [ Bytes.of_string ("transcript:" ^ label); context ] (output :: inputs)

let prove_transcript srs ~label ~context ~inputs ~output ~recompute =
  let recomputed = recompute inputs in
  if not (Bgv.wire_equal recomputed output) then None
  else begin
    let statement = transcript_statement ~label ~context ~inputs ~output in
    Some { statement; mac = sign srs statement }
  end

let verify_transcript srs ~label ~context ~inputs ~output proof =
  check srs (transcript_statement ~label ~context ~inputs ~output) proof

let forge rng =
  { statement = Rng.bytes rng 32; mac = Rng.bytes rng 32 }

module Cost = struct
  (* Calibration anchors from §6.4/§6.6: contribution proof generation
     ~60 s; verification of one contribution (4.3 MB public I/O) ~10 s,
     which puts N=1e6 device verifications at ~1e4 core-hours / 10 h =
     ~300 cores, the regime of Figure 9b. *)
  let prove_seconds ~constraints = 3.2e-5 *. float_of_int constraints

  let verify_seconds ~public_io_bytes = 0.002 +. (2.3e-6 *. float_of_int public_io_bytes)

  let contribution_constraints p =
    (* One R1CS constraint per NTT butterfly per prime, for the two
       component polynomials: ~2 * levels * N log N, plus range checks. *)
    let n = p.Params.degree in
    let logn =
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
      go 0 n
    in
    2 * p.Params.levels * n * logn / 10
end
