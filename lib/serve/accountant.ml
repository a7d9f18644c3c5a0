module Dp = Mycelium_dp.Dp

type t = {
  accounting : Dp.accounting;
  per_user_total : float;
  lock : Mutex.t;  (* guards the table only; each budget has its own *)
  users : (string, Dp.budget) Hashtbl.t;
}

let create ?(accounting = Dp.Basic) ~per_user_total () =
  if per_user_total <= 0. then
    invalid_arg "Accountant.create: per_user_total must be positive";
  {
    accounting;
    per_user_total;
    lock = Mutex.create ();
    users = Hashtbl.create 16;
  }

(* Lookup-or-create under the table lock.  The returned budget is
   itself thread-safe (lib/dp), so charges proceed without holding the
   table lock: two users never contend, and two chargers of one user
   serialize inside their shared budget. *)
let budget_for t user =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  match Hashtbl.find_opt t.users user with
  | Some b -> b
  | None ->
    let b = Dp.budget_create ~accounting:t.accounting ~total:t.per_user_total () in
    Hashtbl.add t.users user b;
    b

let charge t ~user eps = Dp.budget_charge (budget_for t user) eps
let spent t ~user = Dp.budget_spent (budget_for t user)
let per_user_total t = t.per_user_total

let users t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  (* lint: allow determinism — the fold order is erased by the sort *)
  List.sort String.compare (Hashtbl.fold (fun u _ acc -> u :: acc) t.users [])
