module Rng = Mycelium_util.Rng
module Bigint = Mycelium_math.Bigint
module Modarith = Mycelium_math.Modarith
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq

type dealing = {
  from_x : int;
  sub_shares : Shamir.share array;
  commitment : Feldman.commitment;
}

let deal ~group rng ~new_threshold ~new_parties (share : Shamir.share) =
  let p = group.Feldman.order in
  let sub_shares, coeffs =
    Shamir.share_with_poly ~p rng ~threshold:new_threshold ~parties:new_parties share.Shamir.y
  in
  { from_x = share.Shamir.x; sub_shares; commitment = Feldman.commit group coeffs }

let expected_constant ~group ~old_commitment x =
  let p = group.Feldman.order in
  let acc = ref Bigint.one and xk = ref 1 in
  Array.iter
    (fun c ->
      let factor = Bigint.mod_pow c (Bigint.of_int !xk) group.Feldman.big_p in
      acc := Bigint.erem (Bigint.mul !acc factor) group.Feldman.big_p;
      xk := Modarith.mul p !xk x)
    old_commitment;
  !acc

let verify_sub_share ~group dealing j =
  if j < 1 || j > Array.length dealing.sub_shares then false
  else Feldman.verify_share group dealing.commitment dealing.sub_shares.(j - 1)

let verify_dealing ~group ~old_commitment dealing =
  Bigint.equal
    (Feldman.commitment_to_secret dealing.commitment)
    (expected_constant ~group ~old_commitment dealing.from_x)
  && Array.for_all (Feldman.verify_share group dealing.commitment) dealing.sub_shares

let check_distinct_dealers dealings =
  let xs = List.map (fun d -> d.from_x) dealings in
  if List.length (List.sort_uniq Int.compare xs) <> List.length xs then
    invalid_arg "Vsr: duplicate dealer"

let finish ~p ~dealings j =
  check_distinct_dealers dealings;
  let xs = Array.of_list (List.map (fun d -> d.from_x) dealings) in
  let lambdas = Shamir.lagrange_at_zero ~p xs in
  let y =
    List.fold_left
      (fun acc (i, d) ->
        let sub = d.sub_shares.(j - 1) in
        if sub.Shamir.x <> j then invalid_arg "Vsr.finish: misaddressed sub-share";
        Modarith.add p acc (Modarith.mul p lambdas.(i) sub.Shamir.y))
      0
      (List.mapi (fun i d -> (i, d)) dealings)
  in
  { Shamir.x = j; y }

let new_commitment ~group ~dealings =
  check_distinct_dealers dealings;
  let p = group.Feldman.order in
  let xs = Array.of_list (List.map (fun d -> d.from_x) dealings) in
  let lambdas = Shamir.lagrange_at_zero ~p xs in
  Feldman.combine_commitments group (List.map (fun d -> d.commitment) dealings) lambdas

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

let batch_weights basis ~context =
  let primes = Rns.primes basis in
  let n = Rns.degree basis in
  Array.mapi
    (fun pi p ->
      (* Stretch the context hash into weights with a counter-mode
         SHA-256; deterministic for both prover and verifier. *)
      let weights = Array.make n 0 in
      let filled = ref 0 and counter = ref 0 in
      while !filled < n do
        let block =
          let ctx = Mycelium_crypto.Sha256.init () in
          Mycelium_crypto.Sha256.update ctx context;
          Mycelium_crypto.Sha256.update_string ctx (Printf.sprintf "|%d|%d" pi !counter);
          Mycelium_crypto.Sha256.finalize ctx
        in
        let i = ref 0 in
        while !filled < n && !i + 4 <= Bytes.length block do
          let v = Int32.to_int (Bytes.get_int32_le block !i) land max_int in
          weights.(!filled) <- v mod p;
          incr filled;
          i := !i + 4
        done;
        incr counter
      done;
      weights)
    primes

let fold_rq basis gamma v =
  let primes = Rns.primes basis in
  (* The fold is a random linear functional of the raw rows, so prover
     and verifier must read the rows in the same domain: pin Eval, the
     canonical domain for shares. *)
  Rq.force_eval v;
  let rows = Rq.residues v in
  Array.mapi
    (fun pi p ->
      let acc = ref 0 in
      Array.iteri (fun c w -> acc := Modarith.add p !acc (Modarith.mul p w rows.(pi).(c))) gamma.(pi);
      !acc)
    primes
