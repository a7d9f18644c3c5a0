module Sha256 = Mycelium_crypto.Sha256

type entry = { seq : int; author : string; payload : bytes; prev_hash : bytes; hash : bytes }

type t = { mutable log : entry list (* newest first *); mutable n : int }

let genesis_hash = Sha256.digest_string "mycelium:bulletin:genesis"

let create () = { log = []; n = 0 }

let entry_hash ~seq ~author ~payload ~prev_hash =
  let ctx = Sha256.init () in
  Sha256.update_string ctx (string_of_int seq);
  Sha256.update_string ctx "|";
  Sha256.update_string ctx author;
  Sha256.update_string ctx "|";
  Sha256.update ctx payload;
  Sha256.update ctx prev_hash;
  Sha256.finalize ctx

let head_hash t = match t.log with [] -> genesis_hash | e :: _ -> e.hash

let post t ~author payload =
  let seq = t.n in
  let prev_hash = head_hash t in
  let e = { seq; author; payload; prev_hash; hash = entry_hash ~seq ~author ~payload ~prev_hash } in
  t.log <- e :: t.log;
  t.n <- t.n + 1;
  e

let length t = t.n

let verify_chain t =
  let rec go = function
    | [] -> true
    | [ e ] ->
      Bytes.equal e.prev_hash genesis_hash
      && Bytes.equal e.hash (entry_hash ~seq:e.seq ~author:e.author ~payload:e.payload ~prev_hash:e.prev_hash)
    | e :: (prev :: _ as rest) ->
      Bytes.equal e.prev_hash prev.hash
      && Bytes.equal e.hash (entry_hash ~seq:e.seq ~author:e.author ~payload:e.payload ~prev_hash:e.prev_hash)
      && go rest
  in
  go t.log
