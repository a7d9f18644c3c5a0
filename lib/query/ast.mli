(** Abstract syntax of Mycelium's query language: the SQL subset of §4
    with the two extensions (HISTO/GSUM output choice and GSUM clipping
    ranges). Queries "see" a table [neigh(k)] with one row per member
    of each origin's k-hop neighborhood and three column groups:
    [self], [dest], and [edge]. *)

type column_group = Self | Dest | Edge

type field =
  | Inf  (** infection status, 0/1 *)
  | T_inf  (** diagnosis day; truthiness = "was diagnosed" *)
  | Age
  | Duration  (** edge.duration *)
  | Contacts  (** edge.contacts *)
  | Last_contact  (** edge.last_contact *)
  | Location  (** edge.location, enum *)
  | Setting  (** edge.setting, enum *)

type colref = { group : column_group; field : field }

(** Integer-valued expressions appearing in predicates. *)
type scalar =
  | Col of colref
  | Const of int
  | Plus of scalar * int
  | Minus of scalar * int
  | Minus_col of scalar * colref
      (** column difference, e.g. [dest.tInf - self.tInf] in Q10 *)

type cmp = Lt | Le | Gt | Ge | Eq

type pred =
  | True
  | And of pred * pred
  | Or of pred * pred
  | Truthy of colref  (** e.g. [self.inf], [dest.tInf] *)
  | Cmp of cmp * scalar * scalar
  | Between of scalar * scalar * scalar  (** x IN [lo, hi] *)
  | Fn of string * colref  (** onSubway(edge.location), isHousehold(...) *)

type agg = Count | Sum of colref

type output =
  | Histo of agg
  | Gsum of { num : agg; ratio : bool; clip : (int * int) option }
      (** [ratio] marks the SUM/COUNT form (secondary attack rates). *)

type group_by =
  | No_group
  | By_col of colref  (** GROUP BY self.age — bucketed to decades *)
  | By_fn of string * scalar  (** GROUP BY stage(dest.tInf - self.tInf) etc. *)

type t = {
  name : string;
  output : output;
  hops : int;
  where : pred;
  group_by : group_by;
}

val field_of_string : string -> field option
val field_to_string : field -> string
val group_to_string : column_group -> string

val compare_field : field -> field -> int
(** Declaration order; total, for sorted field lists. *)

val colref_valid : colref -> bool
(** [edge] columns carry edge fields, [self]/[dest] vertex fields. *)

val to_string : t -> string

val fold_preds : ('a -> pred -> 'a) -> 'a -> pred -> 'a
(** Folds over every atomic predicate (leaves of the And/Or tree). *)

val scalar_cols : scalar -> colref list
val pred_cols : pred -> colref list
