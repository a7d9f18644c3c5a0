(** The serving layer's admission accountant: one thread-safe
    {!Mycelium_dp.Dp.budget} per analyst, created lazily at a uniform
    [per_user_total]. Admission control charges here *before* any
    crypto work is spent; a rejected charge deducts nothing
    (check-and-deduct is atomic inside the budget), so concurrent
    submitters can never jointly push a user past their total. *)

(* lint: allow interface — the accountant owns a mutex and a budget
   table; handles are compared by identity only *)
type t

val create :
  ?accounting:Mycelium_dp.Dp.accounting -> per_user_total:float -> unit -> t

val charge : t -> user:string -> float -> (unit, [ `Exhausted of float ]) result
(** Atomically charge [eps] against [user]'s budget (created on first
    sight). [Error (`Exhausted remaining)] charges nothing. *)

val spent : t -> user:string -> float
val per_user_total : t -> float

val users : t -> string list
(** Every user seen so far, sorted. *)
