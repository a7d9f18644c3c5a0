type column_group = Self | Dest | Edge

type field = Inf | T_inf | Age | Duration | Contacts | Last_contact | Location | Setting

type colref = { group : column_group; field : field }

type scalar =
  | Col of colref
  | Const of int
  | Plus of scalar * int
  | Minus of scalar * int
  | Minus_col of scalar * colref

type cmp = Lt | Le | Gt | Ge | Eq

type pred =
  | True
  | And of pred * pred
  | Or of pred * pred
  | Truthy of colref
  | Cmp of cmp * scalar * scalar
  | Between of scalar * scalar * scalar
  | Fn of string * colref

type agg = Count | Sum of colref

type output = Histo of agg | Gsum of { num : agg; ratio : bool; clip : (int * int) option }

type group_by = No_group | By_col of colref | By_fn of string * scalar

type t = {
  name : string;
  output : output;
  hops : int;
  where : pred;
  group_by : group_by;
}

let field_of_string = function
  | "inf" -> Some Inf
  | "tInf" -> Some T_inf
  | "age" -> Some Age
  | "duration" -> Some Duration
  | "contacts" -> Some Contacts
  | "last_contact" -> Some Last_contact
  | "location" -> Some Location
  | "setting" -> Some Setting
  | _ -> None

let field_to_string = function
  | Inf -> "inf"
  | T_inf -> "tInf"
  | Age -> "age"
  | Duration -> "duration"
  | Contacts -> "contacts"
  | Last_contact -> "last_contact"
  | Location -> "location"
  | Setting -> "setting"

let group_to_string = function Self -> "self" | Dest -> "dest" | Edge -> "edge"

let field_rank = function
  | Inf -> 0
  | T_inf -> 1
  | Age -> 2
  | Duration -> 3
  | Contacts -> 4
  | Last_contact -> 5
  | Location -> 6
  | Setting -> 7

let compare_field a b = Int.compare (field_rank a) (field_rank b)

let colref_valid c =
  match (c.group, c.field) with
  | (Self | Dest), (Inf | T_inf | Age) -> true
  | (Self | Dest), (Duration | Contacts | Last_contact | Location | Setting) -> false
  | Edge, (Duration | Contacts | Last_contact | Location | Setting) -> true
  | Edge, (Inf | T_inf | Age) -> false

let colref_to_string c = group_to_string c.group ^ "." ^ field_to_string c.field

let rec scalar_to_string = function
  | Col c -> colref_to_string c
  | Const v -> string_of_int v
  | Plus (s, v) -> scalar_to_string s ^ "+" ^ string_of_int v
  | Minus (s, v) -> scalar_to_string s ^ "-" ^ string_of_int v
  | Minus_col (s, c) -> scalar_to_string s ^ "-" ^ colref_to_string c

let cmp_to_string = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "="

let rec pred_to_string = function
  | True -> "TRUE"
  | And (a, b) -> pred_to_string a ^ " AND " ^ pred_to_string b
  | Or (a, b) -> "(" ^ pred_to_string a ^ " OR " ^ pred_to_string b ^ ")"
  | Truthy c -> colref_to_string c
  | Cmp (op, a, b) -> "(" ^ scalar_to_string a ^ cmp_to_string op ^ scalar_to_string b ^ ")"
  | Between (x, lo, hi) ->
    "(" ^ scalar_to_string x ^ " IN [" ^ scalar_to_string lo ^ "," ^ scalar_to_string hi ^ "])"
  | Fn (name, c) -> name ^ "(" ^ colref_to_string c ^ ")"

let agg_to_string = function Count -> "COUNT(*)" | Sum c -> "SUM(" ^ colref_to_string c ^ ")"

let output_to_string = function
  | Histo a -> "HISTO(" ^ agg_to_string a ^ ")"
  | Gsum { num; ratio; clip = _ } ->
    let body = agg_to_string num ^ if ratio then "/COUNT(*)" else "" in
    "GSUM(" ^ body ^ ")"

let group_by_to_string = function
  | No_group -> ""
  | By_col c -> " GROUP BY " ^ colref_to_string c
  | By_fn (name, s) -> " GROUP BY " ^ name ^ "(" ^ scalar_to_string s ^ ")"

let to_string q =
  let where =
    match q.where with
    | True -> ""
    | (And _ | Or _ | Truthy _ | Cmp _ | Between _ | Fn _) as p -> " WHERE " ^ pred_to_string p
  in
  let clip =
    match q.output with
    | Gsum { clip = Some (a, b); _ } -> Printf.sprintf " CLIP [%d,%d]" a b
    | Gsum { clip = None; _ } | Histo _ -> ""
  in
  Printf.sprintf "SELECT %s FROM neigh(%d)%s%s%s" (output_to_string q.output) q.hops where
    (group_by_to_string q.group_by) clip

let rec fold_preds f acc = function
  | And (a, b) | Or (a, b) -> fold_preds f (fold_preds f acc a) b
  | (True | Truthy _ | Cmp _ | Between _ | Fn _) as p -> f acc p

let rec scalar_cols = function
  | Col c -> [ c ]
  | Const _ -> []
  | Plus (s, _) | Minus (s, _) -> scalar_cols s
  | Minus_col (s, c) -> c :: scalar_cols s

let pred_cols p =
  fold_preds
    (fun acc atom ->
      match atom with
      | True -> acc
      | Truthy c -> c :: acc
      | Cmp (_, a, b) -> scalar_cols a @ scalar_cols b @ acc
      | Between (x, lo, hi) -> scalar_cols x @ scalar_cols lo @ scalar_cols hi @ acc
      | Fn (_, c) -> c :: acc
      | And _ | Or _ -> acc)
    [] p
