module Bgv = Mycelium_bgv.Bgv
module Sha256 = Mycelium_crypto.Sha256
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs

type node = { sum : Bgv.ciphertext; hash : bytes }

type t = { levels : node array array; n_leaves : int }

let leaf_hash ct =
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.make 1 '\x00');
  Bgv.hash_into ctx ct;
  Sha256.finalize ctx

let node_hash sum left right =
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.make 1 '\x01');
  Bgv.hash_into ctx sum;
  Sha256.update ctx left;
  Sha256.update ctx right;
  Sha256.finalize ctx

(* An unpaired node keeps its sum; its commitment is re-wrapped so the
   tree shape is committed too. *)
let promote_hash h =
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.make 1 '\x02');
  Sha256.update ctx h;
  Sha256.finalize ctx

let build leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Summation_tree.build: no leaves";
  (* Sibling pairs within a level are independent (a sum plus a hash
     each); parallelise per pair index.  Levels stay strictly ordered,
     so the committed tree is identical at any domain count.

     Leaves arrive from deserialized contributions already in the NTT
     evaluation domain (encrypt produces Eval ciphertexts and the wire
     format preserves the tag), and Bgv.add is domain-preserving, so
     the whole tree aggregates with zero transforms; hashes commit to
     the tagged wire form (streamed by Bgv.hash_into), which the
     deterministic pipeline reproduces exactly on rebuild and audit. *)
  let pool = Pool.default () in
  let level0 =
    Obs.span Obs.Names.sumtree_level ~attrs:[ ("level", Obs.Json.Int 0); ("width", Obs.Json.Int n) ]
    @@ fun () -> Pool.map_array pool (fun ct -> { sum = ct; hash = leaf_hash ct }) leaves
  in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let w = Array.length level in
      let next =
        Obs.span Obs.Names.sumtree_level
          ~attrs:
            [ ("level", Obs.Json.Int (List.length acc + 1));
              ("width", Obs.Json.Int ((w + 1) / 2)) ]
        @@ fun () ->
        Pool.init pool
          ((w + 1) / 2)
          (fun i ->
            if (2 * i) + 1 < w then begin
              let l = level.(2 * i) and r = level.((2 * i) + 1) in
              let sum = Bgv.add l.sum r.sum in
              { sum; hash = node_hash sum l.hash r.hash }
            end
            else begin
              let l = level.(2 * i) in
              { sum = l.sum; hash = promote_hash l.hash }
            end)
      in
      up (level :: acc) next
    end
  in
  { levels = Array.of_list (up [] level0); n_leaves = n }

let root t = t.levels.(Array.length t.levels - 1).(0)
let root_sum t = (root t).sum
let root_hash t = (root t).hash
let leaf_count t = t.n_leaves

let leaves t = Array.map (fun n -> n.sum) t.levels.(0)

(* Restart recovery: the leaves are the aggregator's durable state
   (each is a received, verified contribution); everything above them
   is recomputed. build is deterministic, so the rebuilt root must
   commit to exactly the same tree. *)
let rebuild t = build (leaves t)

type audit_path = { index : int; steps : (Bgv.ciphertext * bytes) option list }

let audit t index =
  if index < 0 || index >= t.n_leaves then invalid_arg "Summation_tree.audit: bad index";
  let steps = ref [] in
  let pos = ref index in
  for level = 0 to Array.length t.levels - 2 do
    let w = Array.length t.levels.(level) in
    let sibling = !pos lxor 1 in
    if sibling < w then begin
      let s = t.levels.(level).(sibling) in
      steps := Some (s.sum, s.hash) :: !steps
    end
    else steps := None :: !steps;
    pos := !pos / 2
  done;
  { index; steps = List.rev !steps }

let verify_audit my_ct ~root_hash:expected_hash ~root_sum:expected_sum ~leaf_count path =
  if path.index < 0 || path.index >= leaf_count then false
  else begin
    (* The number of levels is determined by leaf_count, so a malicious
       aggregator cannot shorten the path. *)
    let rec depth acc w = if w <= 1 then acc else depth (acc + 1) ((w + 1) / 2) in
    let expected_steps = depth 0 leaf_count in
    if List.length path.steps <> expected_steps then false
    else begin
      let sum = ref my_ct and hash = ref (leaf_hash my_ct) in
      let pos = ref path.index and width = ref leaf_count in
      let ok = ref true in
      List.iter
        (fun step ->
          (match step with
          | Some (sibling_sum, sibling_hash) ->
            if !pos lxor 1 >= !width then ok := false
            else if !pos land 1 = 0 then begin
              let s = Bgv.add !sum sibling_sum in
              hash := node_hash s !hash sibling_hash;
              sum := s
            end
            else begin
              let s = Bgv.add sibling_sum !sum in
              hash := node_hash s sibling_hash !hash;
              sum := s
            end
          | None ->
            (* Promotion is only legal for the unpaired last node. *)
            if not (!pos land 1 = 0 && !pos = !width - 1) then ok := false
            else hash := promote_hash !hash);
          pos := !pos / 2;
          width := (!width + 1) / 2)
        path.steps;
      !ok
      && Bytes.equal !hash expected_hash
      && Bgv.wire_equal !sum expected_sum
    end
  end
