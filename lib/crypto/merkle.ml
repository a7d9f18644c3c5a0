type tree = {
  levels : bytes array array;
  (* levels.(0) is the padded leaf-hash layer; the last level has one
     node, the root. *)
  n_leaves : int;
}

type proof = { index : int; leaf_count : int; siblings : bytes list }

let leaf_prefix = Bytes.make 1 '\x00'

let leaf_hash_sub leaf ~pos ~len =
  let ctx = Sha256.init () in
  Sha256.update ctx leaf_prefix;
  Sha256.update_sub ctx leaf ~pos ~len;
  Sha256.finalize ctx

let leaf_hash leaf = leaf_hash_sub leaf ~pos:0 ~len:(Bytes.length leaf)

let node_hash l r =
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.make 1 '\x01');
  Sha256.update ctx l;
  Sha256.update ctx r;
  Sha256.finalize ctx

let empty_hash = Sha256.digest_string "mycelium:merkle:empty"

let next_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let build_hashed hashes =
  let n = Array.length hashes in
  if n = 0 then invalid_arg "Merkle.build_hashed: no leaves";
  let padded = next_pow2 n in
  let layer0 =
    Array.init padded (fun i -> if i < n then hashes.(i) else empty_hash)
  in
  let rec build_up acc layer =
    if Array.length layer = 1 then List.rev (layer :: acc)
    else begin
      let next =
        Array.init
          (Array.length layer / 2)
          (fun i -> node_hash layer.(2 * i) layer.((2 * i) + 1))
      in
      build_up (layer :: acc) next
    end
  in
  { levels = Array.of_list (build_up [] layer0); n_leaves = n }

let build leaves = build_hashed (Array.map leaf_hash leaves)

let root t = t.levels.(Array.length t.levels - 1).(0)
let depth t = Array.length t.levels - 1

let prove t index =
  if index < 0 || index >= t.n_leaves then invalid_arg "Merkle.prove: index out of range";
  let siblings = ref [] in
  let pos = ref index in
  for level = 0 to depth t - 1 do
    let sibling = !pos lxor 1 in
    siblings := t.levels.(level).(sibling) :: !siblings;
    pos := !pos / 2
  done;
  { index; leaf_count = t.n_leaves; siblings = List.rev !siblings }

(* The depth of a tree over [n] leaves, ceil(log2 n): the bit length
   of n - 1. It halves rather than doubles, so a [leaf_count] near
   max_int from an untrusted proof cannot overflow it. *)
let depth_for n =
  let rec go d v = if v = 0 then d else go (d + 1) (v lsr 1) in
  go 0 (n - 1)

let verify ~root:expected_root ~leaf proof =
  if proof.index < 0 || proof.index >= proof.leaf_count then false
  else if List.length proof.siblings <> depth_for proof.leaf_count then false
  else begin
    (* Recompute the root; bit i of the index dictates whether our
       node is the left or right child at level i. *)
    let h = ref (leaf_hash leaf) and pos = ref proof.index in
    List.iter
      (fun sibling ->
        h := (if !pos land 1 = 0 then node_hash !h sibling else node_hash sibling !h);
        pos := !pos / 2)
      proof.siblings;
    Bytes.equal !h expected_root
  end
