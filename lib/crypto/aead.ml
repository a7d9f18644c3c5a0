let overhead = Poly1305.tag_size

let one_time_key ~key ~nonce = Bytes.sub (Chacha20.block ~key ~nonce ~counter:0) 0 32

(* The RFC 8439 §2.8 tag over aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64 lengths,
   with the ciphertext read in place from [buf]. *)
let tag ~key ~nonce ~aad buf ct_len =
  let lengths = Bytes.create 16 in
  Bytes.set_int64_le lengths 0 (Int64.of_int (Bytes.length aad));
  Bytes.set_int64_le lengths 8 (Int64.of_int ct_len);
  Poly1305.mac_padded ~key:(one_time_key ~key ~nonce)
    [ (aad, 0, Bytes.length aad); (buf, 0, ct_len); (lengths, 0, 16) ]

let seal_nonce ~key ~nonce ?(aad = Bytes.empty) msg =
  let len = Bytes.length msg in
  let out = Bytes.create (len + overhead) in
  Chacha20.xor_into ~key ~nonce ~counter:1 ~src:msg ~src_pos:0 ~dst:out ~dst_pos:0 len;
  Bytes.blit (tag ~key ~nonce ~aad out len) 0 out len overhead;
  out

let open_nonce ~key ~nonce ?(aad = Bytes.empty) data =
  let len = Bytes.length data - overhead in
  if len < 0 then None
  else begin
    let expected = tag ~key ~nonce ~aad data len in
    (* Accumulate differences so timing does not depend on the first
       mismatching byte. *)
    let diff = ref 0 in
    for i = 0 to overhead - 1 do
      diff := !diff lor (Bytes.get_uint8 expected i lxor Bytes.get_uint8 data (len + i))
    done;
    if !diff <> 0 then None
    else begin
      let pt = Bytes.create len in
      Chacha20.xor_into ~key ~nonce ~counter:1 ~src:data ~src_pos:0 ~dst:pt ~dst_pos:0 len;
      Some pt
    end
  end

let seal ~key ~round ?aad msg = seal_nonce ~key ~nonce:(Chacha20.nonce_of_round round) ?aad msg

let open_ ~key ~round ?aad data =
  open_nonce ~key ~nonce:(Chacha20.nonce_of_round round) ?aad data
