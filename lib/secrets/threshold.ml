module Rng = Mycelium_util.Rng
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params

type key_share = Shamir.rq_share

let share_secret_key _ctx rng ~threshold ~parties sk =
  Shamir.share_rq rng ~threshold ~parties (Bgv.secret_poly sk)

let reconstruct_secret_key ctx shares =
  Bgv.secret_key_of_poly ctx (Shamir.reconstruct_rq (Bgv.basis ctx) shares)

(* [decrypt], the one caller of the two steps below, refuses a
   ciphertext whose degree is not 1 and builds [participants] from the
   shares it passes. *)
let partial_decrypt ctx rng ~participants (share : key_share) ct =
  let basis = Bgv.basis ctx in
  let lambdas = Shamir.lambda_rows basis participants in
  let my_pos =
    let rec find i = if participants.(i) = share.Shamir.idx then i else find (i + 1) in
    find 0
  in
  let my_lambda = Array.map (fun row -> row.(my_pos)) lambdas in
  let c1 = (Bgv.components ct).(1) in
  let weighted = Rq.mul_scalar_residues (Rq.mul c1 share.Shamir.value) my_lambda in
  (* Smudging: a fresh t-multiple error so the partial reveals nothing
     about the share beyond its contribution to the plaintext. *)
  let t = (Bgv.params ctx).Params.plain_modulus in
  let smudge =
    Rq.mul_scalar (Rq.sample_cbd basis ~eta:(Bgv.params ctx).Params.error_eta rng) t
  in
  Rq.add weighted smudge

let combine ctx ct partials =
  let c0 = (Bgv.components ct).(0) in
  let v = List.fold_left Rq.add c0 partials in
  Bgv.decode_noisy ctx v

let decrypt ctx rng ~threshold ~live ct =
  if Bgv.degree ct <> 1 then Error "ciphertext must be relinearized to degree 1"
  else begin
    let needed = threshold + 1 in
    if List.length live < needed then
      Error
        (Printf.sprintf "threshold decryption needs %d live shares, have %d" needed
           (List.length live))
    else begin
      (* Any >= threshold+1 subset works; take the first [needed] of
         whatever is live — crashed members simply never appear here. *)
      let chosen = List.filteri (fun i _ -> i < needed) live in
      let participants = Array.of_list (List.map (fun s -> s.Shamir.idx) chosen) in
      let partials =
        List.map (fun s -> partial_decrypt ctx rng ~participants s ct) chosen
      in
      Ok (combine ctx ct partials, participants)
    end
  end
