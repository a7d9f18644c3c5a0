(* budget-order fires: the [serve_entry_] prefix opts a function into
   the serve-path ordering discipline (tools/lint/policy.ml), and
   [serve_entry_uncharged] hashes the request — SHA-256 is one of the
   crypto kernels the policy names — before the accountant charge.
   The [serve_entry_charged] twin charges first and must stay
   silent. *)

module Sha256 = Mycelium_crypto.Sha256
module Dp = Mycelium_dp.Dp

let serve_entry_uncharged budget eps =
  let digest = Sha256.digest_string "request" in
  match Dp.budget_charge budget eps with
  | Ok () -> Some digest
  | Error (`Exhausted _) -> None

let serve_entry_charged budget eps =
  match Dp.budget_charge budget eps with
  | Ok () -> Some (Sha256.digest_string "request")
  | Error (`Exhausted _) -> None
