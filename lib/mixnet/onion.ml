module Chacha20 = Mycelium_crypto.Chacha20
module Aead = Mycelium_crypto.Aead
module Rng = Mycelium_util.Rng

let layer_key_size = 32

let seal_inner ~key ~round msg = Aead.seal ~key ~round msg

let open_inner ~key ~round ct = Aead.open_ ~key ~round ct

let inner_overhead = Aead.overhead

let peel_into ~key ~round ~src ~src_pos ~dst ~dst_pos len =
  Chacha20.xor_into ~key ~nonce:(Chacha20.nonce_of_round round) ~src ~src_pos ~dst
    ~dst_pos len

let wrap_into ~hop_keys ~round ~inner ~dst ~dst_pos =
  (* Copy the inner ciphertext once, then XOR each layer in place (the
     stream kernel is aliasing-safe).  The first hop peels first, so its
     layer goes on last. *)
  let len = Bytes.length inner in
  Bytes.blit inner 0 dst dst_pos len;
  for i = Array.length hop_keys - 1 downto 0 do
    peel_into ~key:hop_keys.(i) ~round ~src:dst ~src_pos:dst_pos ~dst ~dst_pos len
  done

let dummy_into rng ~dst ~dst_pos ~length = Rng.fill rng dst ~pos:dst_pos ~len:length
