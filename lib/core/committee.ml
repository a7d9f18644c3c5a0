module Rng = Mycelium_util.Rng
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Shamir = Mycelium_secrets.Shamir
module Vsr = Mycelium_secrets.Vsr
module Threshold = Mycelium_secrets.Threshold
module Dp = Mycelium_dp.Dp
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Ast = Mycelium_query.Ast
module Zkp = Mycelium_zkp.Zkp

type t = {
  ctx : Bgv.ctx;
  size : int;
  thresh : int;
  member_ids : int array;  (* device ids; -1 for genesis parties *)
  shares : Threshold.key_share array;
  generation : int;
}

let committee_size t = t.size
let members t = t.member_ids
let generation t = t.generation

let genesis ctx rng ~size ~threshold ~relin_degree =
  if threshold + 1 > size then invalid_arg "Committee.genesis: threshold too high";
  let sk, pk = Bgv.keygen ctx rng in
  let relin = Bgv.relin_keygen ctx rng sk ~max_degree:relin_degree in
  let srs = Zkp.setup rng in
  let shares = Threshold.share_secret_key ctx rng ~threshold ~parties:size sk in
  (* The genesis parties are outside the device population. *)
  let t =
    {
      ctx;
      size;
      thresh = threshold;
      member_ids = Array.make size (-1);
      shares;
      generation = 0;
    }
  in
  (t, pk, relin, srs)

let rotate t rng ~population =
  let member_ids = Rng.sample_without_replacement rng t.size population in
  (* Any threshold+1 current holders re-share to the new committee. *)
  let dealers = Array.to_list (Array.sub t.shares 0 (t.thresh + 1)) in
  let shares = Vsr.redistribute_rq rng ~new_threshold:t.thresh ~new_parties:t.size dealers in
  { t with member_ids; shares; generation = t.generation + 1 }

type release = {
  noisy_bins : float array;
  result : Mycelium_query.Semantics.result;
  participants : int array;
  attempts : int;
}

(* Keep sampling reachable members until threshold+1 answer or we give
   up: "we simply have to wait for some amount of time before enough
   members are back, and retry" (§6.5). Crashed members never answer:
   they are out of the candidate pool before churn is even sampled. *)
let rec recruit rng ~candidates ~needed ~churn ~max_attempts ~attempt =
  if attempt > max_attempts then None
  else begin
    let online = List.filter (fun _ -> not (Rng.bernoulli rng churn)) candidates in
    if List.length online >= needed then begin
      let arr = Array.of_list online in
      Rng.shuffle rng arr;
      Some (Array.sub arr 0 needed, attempt)
    end
    else recruit rng ~candidates ~needed ~churn ~max_attempts ~attempt:(attempt + 1)
  end

(* The §4.4 final processing of one member's exact counts: calibrated
   Laplace noise per histogram bin for HISTO, per group sum for GSUM,
   drawn from [noise_rng]. *)
let release_from_counts ~noise_rng ~info ~epsilon ~participants ~attempts counts =
  let sensitivity = info.Analysis.sensitivity in
  match info.Analysis.query.Ast.output with
  | Ast.Histo _ ->
    (* Laplace noise on every bin before anything leaves the MPC. *)
    let noisy_bins = Dp.release_histogram noise_rng ~sensitivity ~epsilon counts in
    Ok { noisy_bins; result = Semantics.decode info noisy_bins; participants; attempts }
  | Ast.Gsum _ ->
    (* The committee computes the clipped sums from the exact bins
       (§4.4's formula) and noises each group's output once. *)
    let exact = Array.map float_of_int counts in
    (match Semantics.decode info exact with
    | Semantics.Sums groups ->
      let noised =
        Array.map
          (fun (label, v) -> (label, Dp.release_sum noise_rng ~sensitivity ~epsilon v))
          groups
      in
      Ok { noisy_bins = exact; result = Semantics.Sums noised; participants; attempts }
    | Semantics.Histogram _ -> Error "decode mismatch: GSUM query decoded to histogram")

let recruit_and_decrypt ?(churn = 0.) ?(max_attempts = 10) ?(excluded = []) t rng ctx ct =
  let candidates =
    List.filter (fun i -> not (List.exists (Int.equal i) excluded)) (List.init t.size Fun.id)
  in
  match recruit rng ~candidates ~needed:(t.thresh + 1) ~churn ~max_attempts ~attempt:1 with
  | None -> Error "committee liveness failure: too few members reachable"
  | Some (idx, attempts) ->
    let live = List.map (fun i -> t.shares.(i)) (Array.to_list idx) in
    (match Threshold.decrypt ctx rng ~threshold:t.thresh ~live ct with
    | Error e -> Error e
    | Ok (pt, participants) -> Ok (pt, participants, attempts))

type batch_member = {
  b_info : Analysis.info;
  b_epsilon : float;
  b_noise_rng : Rng.t;
}

(* One threshold-decryption session for a whole batch: member [i]'s
   (relinearized) aggregate is shifted into its own window of the
   plaintext ring by a homomorphic multiplication with the monomial
   x^offset_i — exponent arithmetic moves bin b to bin offset_i + b —
   the shifted ciphertexts are summed, and the single combined
   ciphertext is decrypted by one recruited committee. The coefficient
   vector of the decrypted plaintext is the concatenation of every
   member's exact bins, sliced back apart per member.

   Exactness is what makes the sharing safe: Shamir reconstruction
   yields the same plaintext for any threshold+1 live shares, and the
   windows are disjoint with no negacyclic wrap (enforced by the
   [sum total_bins <= N] check), so each member's sliced counts are
   bit-identical to what its own solo decryption session would have
   produced. Per-member DP noise then comes from the member's own
   [b_noise_rng], never a shared stream — so released bytes cannot
   depend on who else shared the session. *)
let decrypt_batch ?churn ?max_attempts ?excluded t rng ctx ~members =
  match members with
  | [] -> invalid_arg "Committee.decrypt_batch: empty batch"
  | members ->
    if List.exists (fun (_, ct) -> Bgv.degree ct <> 1) members then
      Error "ciphertext must be relinearized to degree 1"
    else begin
      let ring_degree = (Bgv.params ctx).Params.degree in
      let plain_modulus = Bgv.plain_modulus ctx in
      (* Disjoint plaintext windows: member i owns
         [offset_i, offset_i + total_bins_i). *)
      let offsets =
        let next = ref 0 in
        List.map
          (fun (m, _) ->
            let o = !next in
            next := o + m.b_info.Analysis.layout.Analysis.total_bins;
            o)
          members
      in
      let total =
        List.fold_left
          (fun acc (m, _) -> acc + m.b_info.Analysis.layout.Analysis.total_bins)
          0 members
      in
      if total > ring_degree then
        Error
          (Printf.sprintf
             "batch overflows the plaintext ring: %d bins > degree %d" total
             ring_degree)
      else begin
        let combined =
          List.fold_left2
            (fun acc (_, ct) offset ->
              let shifted =
                if offset = 0 then ct
                else
                  Bgv.mul_plain ctx ct
                    (Plaintext.monomial ~plain_modulus ~degree:ring_degree
                       ~exponent:offset)
              in
              match acc with None -> Some shifted | Some a -> Some (Bgv.add a shifted))
            None members offsets
        in
        let combined = Option.get combined in
        match recruit_and_decrypt ?churn ?max_attempts ?excluded t rng ctx combined with
        | Error e -> Error e
        | Ok (pt, participants, attempts) ->
          let releases =
            List.map2
              (fun (m, _) offset ->
                let bins = m.b_info.Analysis.layout.Analysis.total_bins in
                let counts = Array.init bins (fun i -> Plaintext.coeff pt (offset + i)) in
                release_from_counts ~noise_rng:m.b_noise_rng ~info:m.b_info
                  ~epsilon:m.b_epsilon ~participants ~attempts counts)
              members offsets
          in
          (* Either every member releases or the whole session fails. *)
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | Ok r :: rest -> collect (r :: acc) rest
            | Error e :: _ -> Error e
          in
          collect [] releases
      end
    end

(* A session of one: the member's window sits at offset 0, so no
   monomial shift happens, and [rng] doubles as the noise stream — the
   draws come in the order of recruitment, decryption, then noise. *)
let decrypt_and_release ?churn ?max_attempts ?excluded t rng ctx ~info ~epsilon ct =
  Result.map List.hd
    (decrypt_batch ?churn ?max_attempts ?excluded t rng ctx
       ~members:[ ({ b_info = info; b_epsilon = epsilon; b_noise_rng = rng }, ct) ])

let reconstruct_for_tests t ctx =
  Threshold.reconstruct_secret_key ctx
    (Array.to_list (Array.sub t.shares 0 (t.thresh + 1)))
