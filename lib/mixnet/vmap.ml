module Merkle = Mycelium_crypto.Merkle
module Sha256 = Mycelium_crypto.Sha256
module Elgamal = Mycelium_crypto.Elgamal
module Rng = Mycelium_util.Rng

type m1_leaf = { pseudonym : bytes; pk : bytes; device : int }

type t = {
  leaves : m1_leaf array;
  m1 : Merkle.tree;
  m2 : Merkle.tree;
  m2_payloads : bytes array;
  by_pseudonym : (string, int) Hashtbl.t Lazy.t;
      (* built on first reverse lookup: at 10^6 devices the index costs
         ~150 MB of string keys, and forwarding-only runs never ask *)
  n_devices : int;
  max_pseudonyms : int;
}

let encode_m1_leaf l =
  let buf = Buffer.create 80 in
  Buffer.add_bytes buf l.pseudonym;
  Buffer.add_string buf (string_of_int (Bytes.length l.pk));
  Buffer.add_char buf '|';
  Buffer.add_bytes buf l.pk;
  Buffer.add_string buf (string_of_int l.device);
  Buffer.to_bytes buf

(* M2 leaf: device number followed by exactly P slots of
   (H(h_i), H(pk_i)) pairs, zero-padded. The fixed capacity is the
   point (§3.3): a device registering more than P pseudonyms cannot
   have all of them covered by its leaf, so a spot check fails with
   high probability. [entries] holds each slot's (h_i, H(pk_i)). *)
let encode_m2_payload ~capacity device entries =
  let buf = Buffer.create (16 + (capacity * 64)) in
  Buffer.add_string buf (string_of_int device);
  Buffer.add_char buf '|';
  let rec fill n = function
    | (h, hpk) :: rest when n > 0 ->
      Buffer.add_bytes buf (Sha256.digest h);
      Buffer.add_bytes buf hpk;
      fill (n - 1) rest
    | _ ->
      Buffer.add_bytes buf (Bytes.make (n * 64) '\x00')
  in
  fill capacity entries;
  Buffer.to_bytes buf

(* [hpk l] is H(l.pk): {!build} has checked that it equals the pseudonym
   and passes that, {!build_unchecked} hashes the key. *)
let assemble ~max_pseudonyms_per_device ~hpk leaves =
  let n_devices =
    1 + Array.fold_left (fun acc l -> max acc l.device) (-1) leaves
  in
  let per_device = Array.make (max 1 n_devices) [] in
  Array.iter
    (fun l -> per_device.(l.device) <- (l.pseudonym, hpk l) :: per_device.(l.device))
    leaves;
  let m2_payloads =
    Array.mapi
      (fun d entries ->
        encode_m2_payload ~capacity:max_pseudonyms_per_device d (List.rev entries))
      per_device
  in
  let by_pseudonym =
    lazy
      (let tbl = Hashtbl.create (Array.length leaves) in
       Array.iteri
         (fun i l -> Hashtbl.replace tbl (Bytes.to_string l.pseudonym) i)
         leaves;
       tbl)
  in
  {
    leaves;
    m1 = Merkle.build (Array.map encode_m1_leaf leaves);
    m2 = Merkle.build m2_payloads;
    m2_payloads;
    by_pseudonym;
    n_devices;
    max_pseudonyms = max_pseudonyms_per_device;
  }

let build_unchecked ~max_pseudonyms_per_device leaves =
  assemble ~max_pseudonyms_per_device ~hpk:(fun l -> Sha256.digest l.pk) leaves

let build ~max_pseudonyms_per_device leaves =
  if Array.length leaves = 0 then Error "empty map"
  else begin
    let seen = Hashtbl.create (Array.length leaves) in
    let counts = Hashtbl.create 64 in
    let problem = ref None in
    Array.iter
      (fun l ->
        let key = Bytes.to_string l.pseudonym in
        if Hashtbl.mem seen key then problem := Some "duplicate pseudonym";
        Hashtbl.replace seen key ();
        let c = Option.value ~default:0 (Hashtbl.find_opt counts l.device) + 1 in
        Hashtbl.replace counts l.device c;
        if c > max_pseudonyms_per_device then problem := Some "device exceeds pseudonym bound";
        if Option.is_none (Elgamal.pub_of_bytes l.pk) then problem := Some "unparseable public key"
        else if not (Bytes.equal (Sha256.digest l.pk) l.pseudonym) then
          problem := Some "pseudonym is not H(pk)";
        if l.device < 0 then problem := Some "negative device number")
      leaves;
    match !problem with
    | Some e -> Error e
    | None -> Ok (assemble ~max_pseudonyms_per_device ~hpk:(fun l -> l.pseudonym) leaves)
  end

let size t = Array.length t.leaves
let device_count t = t.n_devices

let m1_root t = Merkle.root t.m1
let m2_root t = Merkle.root t.m2

let roots_payload t = Bytes.cat (m1_root t) (m2_root t)

type lookup = { leaf : m1_leaf; proof : Merkle.proof }

let lookup t index = { leaf = t.leaves.(index); proof = Merkle.prove t.m1 index }

let verify_lookup ~m1_root ~index l =
  l.proof.Merkle.index = index
  && Merkle.verify ~root:m1_root ~leaf:(encode_m1_leaf l.leaf) l.proof
  &&
  Option.is_some (Elgamal.pub_of_bytes l.leaf.pk)
  && Bytes.equal (Sha256.digest l.leaf.pk) l.leaf.pseudonym

let pub_of_lookup l = Elgamal.pub_of_bytes l.leaf.pk

let index_of_pseudonym t h = Hashtbl.find_opt (Lazy.force t.by_pseudonym) (Bytes.to_string h)

type m2_lookup = { payload : bytes; proof : Merkle.proof }

let m2_lookup t ~device = { payload = t.m2_payloads.(device); proof = Merkle.prove t.m2 device }

let verify_m2_lookup ~m2_root ~device l =
  l.proof.Merkle.index = device && Merkle.verify ~root:m2_root ~leaf:l.payload l.proof

let m2_contains_pk l ~pk =
  let needle = Bytes.to_string (Sha256.digest pk) in
  let hay = Bytes.to_string l.payload in
  (* The payload embeds 32-byte hash blocks; a substring check over the
     encoded form suffices for 32-byte digests. *)
  let nlen = String.length needle and hlen = String.length hay in
  let rec scan i =
    i + nlen <= hlen && (String.equal (String.sub hay i nlen) needle || scan (i + 1))
  in
  scan 0

let audit_own_pseudonyms t ~device ~pseudonyms =
  List.for_all
    (fun h ->
      match index_of_pseudonym t h with
      | None -> false
      | Some i ->
        let l = lookup t i in
        verify_lookup ~m1_root:(m1_root t) ~index:i l && l.leaf.device = device)
    pseudonyms

let audit_spot_check t rng ~samples =
  let n = size t in
  let ok = ref true in
  for _ = 1 to samples do
    if !ok then begin
      let i = Rng.int rng n in
      let l = lookup t i in
      if not (verify_lookup ~m1_root:(m1_root t) ~index:i l) then ok := false
      else begin
        let d = l.leaf.device in
        if d < 0 || d >= device_count t then ok := false
        else begin
          let m2l = m2_lookup t ~device:d in
          if not (verify_m2_lookup ~m2_root:(m2_root t) ~device:d m2l) then ok := false
          else if not (m2_contains_pk m2l ~pk:l.leaf.pk) then ok := false
        end
      end
    end
  done;
  !ok
