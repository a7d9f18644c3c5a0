module Rq = Mycelium_math.Rq

let redistribute_rq rng ~new_threshold ~new_parties old_shares =
  match old_shares with
  | [] -> invalid_arg "Vsr.redistribute_rq: no shares"
  | first :: _ ->
    let basis = Rq.basis_of first.Shamir.value in
    let xs = Array.of_list (List.map (fun s -> s.Shamir.idx) old_shares) in
    if Array.length xs <> (Array.to_list xs |> List.sort_uniq Int.compare |> List.length) then
      invalid_arg "Vsr.redistribute_rq: duplicate share index";
    (* Each old member re-shares its ring share, weighted by its
       Lagrange coefficient; the kernel sums the weighted sharing
       polynomials before it evaluates them for the new members. *)
    Shamir.share_rq_weighted rng ~threshold:new_threshold ~parties:new_parties
      ~weights:(Shamir.lambda_rows basis xs)
      (List.map (fun s -> s.Shamir.value) old_shares)
