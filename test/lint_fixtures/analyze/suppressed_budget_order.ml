(* [Fire_budget_order.serve_entry_uncharged], silenced: the same
   pre-charge hash, under a suppression comment. *)

module Sha256 = Mycelium_crypto.Sha256
module Dp = Mycelium_dp.Dp

let serve_entry_uncharged budget eps =
  (* lint: allow budget-order — fixture: deliberate pre-charge crypto,
     proves the suppression machinery silences analyzer rules *)
  let digest = Sha256.digest_string "request" in
  match Dp.budget_charge budget eps with
  | Ok () -> Some digest
  | Error (`Exhausted _) -> None
