module Rng = Mycelium_util.Rng
module Schema = Mycelium_graph.Schema
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Ast = Mycelium_query.Ast
module Zkp = Mycelium_zkp.Zkp

type t = { ciphertexts : Bgv.ciphertext array; proofs : Zkp.proof array }

(* ------------------------------------------------------------------ *)
(* Query-shape helpers                                                 *)
(* ------------------------------------------------------------------ *)

let conjuncts where =
  match Semantics.split_where where with
  | Ok (_, rows) -> rows
  | Error e -> failwith ("Contribution: " ^ e)

let is_cross p =
  match Analysis.classify_atom p with
  | Ok (Analysis.Cross _) -> true
  | Ok (Analysis.Origin_side | Analysis.Dest_side | Analysis.Constant) -> false
  | Error _ -> (
    (* compound conjunct: cross if it mixes self and dest *)
    let cols = Ast.pred_cols p in
    let has g = List.exists (fun (c : Ast.colref) -> c.Ast.group = g) cols in
    has Ast.Self && has Ast.Dest)

let cross_field info =
  let fields =
    List.filter_map
      (fun p ->
        match Analysis.classify_atom p with
        | Ok (Analysis.Cross f) -> Some f
        | Ok (Analysis.Origin_side | Analysis.Dest_side | Analysis.Constant) | Error _ -> None)
      (conjuncts info.Analysis.query.Ast.where)
  in
  let from_group =
    match info.Analysis.group_kind with
    | Analysis.Group_cross f -> [ f ]
    | Analysis.Group_none | Analysis.Group_self | Analysis.Group_edge -> []
  in
  match List.sort_uniq Ast.compare_field (fields @ from_group) with
  | [] -> None
  | [ f ] -> Some f
  | _ -> failwith "Contribution: multiple cross-column fields are not supported"

let sequence_length info =
  match cross_field info with None -> 1 | Some f -> Analysis.field_slots f

let strides info =
  let l = info.Analysis.layout in
  (l.Analysis.count_slots * l.Analysis.value_slots, l.Analysis.count_slots)

(* The §4.1 value this row encodes, before any cross handling: gated by
   the non-cross row predicates (dest + shared edge columns). *)
let row_payload info ~dest ~edge =
  let ctx = { Semantics.self = dest (* unused by non-cross atoms *); dest; edge } in
  let non_cross_ok =
    List.for_all
      (fun p -> is_cross p || Semantics.eval_pred p ctx)
      (conjuncts info.Analysis.query.Ast.where)
  in
  if not non_cross_ok then 0
  else begin
    let agg =
      match info.Analysis.query.Ast.output with Ast.Histo a -> a | Ast.Gsum { num; _ } -> num
    in
    let s =
      match agg with
      | Ast.Count -> 1
      | Ast.Sum c -> (
        let raw =
          match (c.Ast.group, c.Ast.field, edge) with
          | Ast.Dest, Ast.Inf, _ -> Some (if dest.Schema.infected then 1 else 0)
          | Ast.Dest, Ast.Age, _ -> Some dest.Schema.age
          | Ast.Dest, Ast.T_inf, _ -> dest.Schema.t_inf
          | Ast.Edge, Ast.Duration, Some e -> Some e.Schema.duration_min
          | Ast.Edge, Ast.Contacts, Some e -> Some e.Schema.contacts
          | Ast.Edge, Ast.Last_contact, Some e -> Some e.Schema.last_contact
          | Ast.Self, _, _
          | ( Ast.Dest,
              (Ast.Duration | Ast.Contacts | Ast.Last_contact | Ast.Location | Ast.Setting),
              _ )
          | Ast.Edge, (Ast.Inf | Ast.T_inf | Ast.Age | Ast.Location | Ast.Setting), _
          | Ast.Edge, (Ast.Duration | Ast.Contacts | Ast.Last_contact), None ->
            None
        in
        match raw with Some v -> Analysis.bucketize c.Ast.field v | None -> 0)
    in
    let _, count_stride = strides info in
    if Semantics.is_ratio info then (s * count_stride) + 1 else s
  end

(* The destination's bucket in the cross field, if defined. *)
let cross_bucket field (dest : Schema.vertex_data) =
  match field with
  | Ast.T_inf -> Option.map (Analysis.bucketize Ast.T_inf) dest.Schema.t_inf
  | Ast.Age -> Some (Analysis.bucketize Ast.Age dest.Schema.age)
  | Ast.Inf | Ast.Duration | Ast.Contacts | Ast.Last_contact | Ast.Location | Ast.Setting -> None

(* A synthetic destination whose cross-field bucket is [v]; used by the
   origin to evaluate cross predicates position by position. *)
let synthetic_dest field v : Schema.vertex_data =
  match field with
  | Ast.T_inf -> { Schema.infected = true; t_inf = Some v; age = 0; household = 0 }
  | Ast.Age -> { Schema.infected = false; t_inf = None; age = v * 10; household = 0 }
  | Ast.Inf | Ast.Duration | Ast.Contacts | Ast.Last_contact | Ast.Location | Ast.Setting ->
    failwith "Contribution: unsupported cross field"

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let encrypt_with_proof srs ctx rng pk pt =
  let seed = Rng.int64 rng in
  let ct = Bgv.encrypt ctx (Rng.create seed) pk pt in
  match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed ct with
  | Some proof -> (ct, proof)
  | None -> assert false (* honest monomials and zero are always admissible *)

let monomial ctx exponent =
  let p = Bgv.params ctx in
  Plaintext.monomial ~plain_modulus:p.Params.plain_modulus ~degree:p.Params.degree ~exponent

let build srs ctx rng pk info ~dest ~edge =
  let payload = row_payload info ~dest ~edge in
  match cross_field info with
  | None ->
    let ct, proof = encrypt_with_proof srs ctx rng pk (monomial ctx payload) in
    { ciphertexts = [| ct |]; proofs = [| proof |] }
  | Some field ->
    let l = Analysis.field_slots field in
    let m = cross_bucket field dest in
    let pairs =
      Array.init l (fun v ->
          let e = match m with Some b when Int.equal b v -> payload | _ -> 0 in
          encrypt_with_proof srs ctx rng pk (monomial ctx e))
    in
    { ciphertexts = Array.map fst pairs; proofs = Array.map snd pairs }

let build_malicious ctx rng pk info ~exponent ~coeff =
  let p = Bgv.params ctx in
  let coeffs = Array.make (exponent + 1) 0 in
  coeffs.(exponent) <- coeff;
  let pt = Plaintext.create ~plain_modulus:p.Params.plain_modulus coeffs in
  let n = sequence_length info in
  let pairs =
    Array.init n (fun _ -> (Bgv.encrypt ctx rng pk pt, Zkp.forge rng))
  in
  { ciphertexts = Array.map fst pairs; proofs = Array.map snd pairs }

let to_bytes t =
  let buf = Buffer.create 4096 in
  let add_framed b =
    let hdr = Bytes.create 4 in
    Bytes.set_int32_le hdr 0 (Int32.of_int (Bytes.length b));
    Buffer.add_bytes buf hdr;
    Buffer.add_bytes buf b
  in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (Array.length t.ciphertexts));
  Buffer.add_bytes buf hdr;
  Array.iter (fun ct -> add_framed (Bgv.serialize ct)) t.ciphertexts;
  Array.iter (fun p -> add_framed (Zkp.proof_to_bytes p)) t.proofs;
  Buffer.to_bytes buf

let of_bytes ctx data =
  let pos = ref 0 and len = Bytes.length data in
  let read_framed () =
    if !pos + 4 > len then raise Exit;
    let l = Int32.to_int (Bytes.get_int32_le data !pos) in
    pos := !pos + 4;
    if l < 0 || !pos + l > len then raise Exit;
    let b = Bytes.sub data !pos l in
    pos := !pos + l;
    b
  in
  try
    if len < 4 then raise Exit;
    let n = Int32.to_int (Bytes.get_int32_le data 0) in
    pos := 4;
    if n < 1 || n > 64 then raise Exit;
    let cts =
      Array.init n (fun _ ->
          match Bgv.deserialize ctx (read_framed ()) with Some ct -> ct | None -> raise Exit)
    in
    let proofs =
      Array.init n (fun _ ->
          match Zkp.proof_of_bytes (read_framed ()) with Some p -> p | None -> raise Exit)
    in
    if !pos <> len then raise Exit;
    Some { ciphertexts = cts; proofs }
  with Exit -> None

(* to_bytes' framing: the count header, then one length-framed fresh
   ciphertext and one length-framed 64-byte proof per sequence slot. *)
let wire_size ctx info =
  4 + (sequence_length info * ((4 + Bgv.ciphertext_bytes ctx ~degree:1) + (4 + 64)))

let verify srs ctx info t =
  Array.length t.ciphertexts = sequence_length info
  && Array.length t.proofs = Array.length t.ciphertexts
  && Array.for_all2
       (fun ct proof -> Zkp.verify_contribution srs ctx ct proof)
       t.ciphertexts t.proofs

(* ------------------------------------------------------------------ *)
(* Origin-side aggregation                                             *)
(* ------------------------------------------------------------------ *)

let cross_conjuncts info = List.filter is_cross (conjuncts info.Analysis.query.Ast.where)

(* For a cross query: does bucket position v of this row pass the cross
   predicates, and which group does it land in? *)
let position_selected info field ~self ~edge v =
  let ctx = { Semantics.self; dest = synthetic_dest field v; edge } in
  if List.for_all (fun p -> Semantics.eval_pred p ctx) (cross_conjuncts info) then
    Semantics.accumulation_group info ctx
  else None

let aggregate_subtree srs ~own ~children =
  let inputs = match own with Some ct -> ct :: children | None -> children in
  match inputs with
  | [] -> Error "empty subtree"
  | _ -> (
    let product = Bgv.mul_many inputs in
    match
      Zkp.prove_transcript srs ~label:"subtree-aggregation" ~context:Bytes.empty ~inputs
        ~output:product ~recompute:Bgv.mul_many
    with
    | Some proof -> Ok (product, proof)
    | None -> Error "subtree transcript proof failed")

(* A factor of one group's product, described by indices into the flat
   input-ciphertext list so the whole aggregation can be re-executed
   deterministically by the transcript prover. *)
type factor_spec =
  | Direct of int
  | Corrected of int list  (* selected subsequence; correction = |S| - 1 *)

let aggregate_origin srs ctx rng pk info ~self ~rows =
  let t_mod = Bgv.plain_modulus ctx in
  let ring_degree = (Bgv.params ctx).Params.degree in
  let group_stride, _ = strides info in
  let groups = info.Analysis.layout.Analysis.group_count in
  if not (Semantics.origin_gate info self) then begin
    (* §4.4 final processing: a gated-out origin contributes Enc(0). *)
    let p = Bgv.params ctx in
    Ok
      (encrypt_with_proof srs ctx rng pk
         (Plaintext.zero ~plain_modulus:p.Params.plain_modulus ~degree:p.Params.degree))
  end
  else begin
    let field = cross_field info in
    let self_grouped =
      match info.Analysis.group_kind with
      | Analysis.Group_none | Analysis.Group_self -> true
      | Analysis.Group_edge | Analysis.Group_cross _ -> false
    in
    let effective_groups = if self_grouped then 1 else groups in
    (* Flat input list: the origin's own-row ciphertext first, then
       every neighbor ciphertext, then empty-group fillers. *)
    let inputs = ref [] and n_inputs = ref 0 in
    let push ct =
      inputs := ct :: !inputs;
      incr n_inputs;
      !n_inputs - 1
    in
    (* The origin's own row: unlike neighbor rows, the origin holds both
       sides of every cross-column comparison, so it evaluates the full
       row predicate directly (no sequence needed). *)
    let own_ctx_row = { Semantics.self; dest = self; edge = None } in
    let own_exponent =
      let b = Semantics.row_value info own_ctx_row in
      if Semantics.is_ratio info then begin
        let _, count_stride = strides info in
        (b * count_stride) + if Semantics.row_passes info own_ctx_row then 1 else 0
      end
      else b
    in
    let own_ct, _own_proof = encrypt_with_proof srs ctx rng pk (monomial ctx own_exponent) in
    let own_idx = push own_ct in
    let own_group = Semantics.accumulation_group info own_ctx_row in
    let specs = Array.make effective_groups [] in
    let add_spec g s = specs.(g) <- s :: specs.(g) in
    (match own_group with
    | Some g when g >= 0 && g < effective_groups -> add_spec g (Direct own_idx)
    | Some _ | None -> ());
    let problem = ref None in
    List.iter
      (fun (edge, (row : t)) ->
        match field with
        | None -> (
          let idx0 = push row.ciphertexts.(0) in
          let ctx_row = { Semantics.self; dest = self (* unused *); edge } in
          match Semantics.accumulation_group info ctx_row with
          | Some g when g >= 0 && g < effective_groups -> add_spec g (Direct idx0)
          | Some _ | None -> ())
        | Some field ->
          if Array.length row.ciphertexts <> Analysis.field_slots field then
            problem := Some "sequence length mismatch"
          else begin
            let idxs = Array.map push row.ciphertexts in
            for g = 0 to effective_groups - 1 do
              let selected = ref [] in
              for v = Array.length row.ciphertexts - 1 downto 0 do
                match position_selected info field ~self ~edge v with
                | Some g' when g' = g -> selected := idxs.(v) :: !selected
                | Some _ | None -> ()
              done;
              if !selected <> [] then add_spec g (Corrected !selected)
            done
          end)
      rows;
    (* Empty groups still report the (s=0, c=0) bin: fill with a fresh
       Enc(x^0). *)
    let fillers =
      Array.init effective_groups (fun g ->
          if specs.(g) = [] then begin
            let ct, _ = encrypt_with_proof srs ctx rng pk (monomial ctx 0) in
            let idx = push ct in
            add_spec g (Direct idx);
            Some idx
          end
          else None)
    in
    ignore fillers;
    match !problem with
    | Some e -> Error e
    | None ->
      let input_arr = Array.of_list (List.rev !inputs) in
      (* The deterministic aggregation: replayed by the prover. *)
      let compute (cts : Bgv.ciphertext list) =
        let arr = Array.of_list cts in
        let factor = function
          | Direct i -> arr.(i)
          | Corrected [] -> assert false
          | Corrected (i :: rest) ->
            let sum = List.fold_left (fun acc j -> Bgv.add acc arr.(j)) arr.(i) rest in
            Bgv.sub_plain ctx sum
              (Plaintext.create ~plain_modulus:t_mod [| List.length rest |])
        in
        let shifted g =
          let product = Bgv.mul_many (List.rev_map factor specs.(g)) in
          let g_shift = if self_grouped then Semantics.origin_group info self else g in
          if g_shift = 0 then product
          else
            Bgv.mul_plain ctx product
              (Plaintext.monomial ~plain_modulus:t_mod ~degree:ring_degree
                 ~exponent:(g_shift * group_stride))
        in
        let rec sum_groups g acc =
          if g >= effective_groups then acc else sum_groups (g + 1) (Bgv.add acc (shifted g))
        in
        sum_groups 1 (shifted 0)
      in
      let total = compute (Array.to_list input_arr) in
      (match
         Zkp.prove_transcript srs ~label:"origin-aggregation"
           ~context:(Bytes.of_string info.Analysis.query.Ast.name)
           ~inputs:(Array.to_list input_arr) ~output:total ~recompute:compute
       with
      | Some proof -> Ok (total, proof)
      | None -> Error "transcript proof failed")
  end
