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
let equal_field a b = Int.equal (field_rank a) (field_rank b)

let equal_group a b =
  match (a, b) with
  | Self, Self | Dest, Dest | Edge, Edge -> true
  | (Self | Dest | Edge), _ -> false

let equal_colref a b = equal_group a.group b.group && equal_field a.field b.field

let rec equal_scalar a b =
  match (a, b) with
  | Col a, Col b -> equal_colref a b
  | Const a, Const b -> Int.equal a b
  | Plus (s, v), Plus (s', v') -> equal_scalar s s' && Int.equal v v'
  | Minus (s, v), Minus (s', v') -> equal_scalar s s' && Int.equal v v'
  | Minus_col (s, c), Minus_col (s', c') -> equal_scalar s s' && equal_colref c c'
  | (Col _ | Const _ | Plus _ | Minus _ | Minus_col _), _ -> false

let equal_cmp a b =
  match (a, b) with
  | Lt, Lt | Le, Le | Gt, Gt | Ge, Ge | Eq, Eq -> true
  | (Lt | Le | Gt | Ge | Eq), _ -> false

let rec equal_pred a b =
  match (a, b) with
  | True, True -> true
  | And (p, q), And (p', q') -> equal_pred p p' && equal_pred q q'
  | Or (p, q), Or (p', q') -> equal_pred p p' && equal_pred q q'
  | Truthy c, Truthy c' -> equal_colref c c'
  | Cmp (c, x, y), Cmp (c', x', y') ->
    equal_cmp c c' && equal_scalar x x' && equal_scalar y y'
  | Between (x, lo, hi), Between (x', lo', hi') ->
    equal_scalar x x' && equal_scalar lo lo' && equal_scalar hi hi'
  | Fn (f, c), Fn (f', c') -> String.equal f f' && equal_colref c c'
  | (True | And _ | Or _ | Truthy _ | Cmp _ | Between _ | Fn _), _ -> false

let equal_agg a b =
  match (a, b) with
  | Count, Count -> true
  | Sum c, Sum c' -> equal_colref c c'
  | (Count | Sum _), _ -> false

let equal_output a b =
  match (a, b) with
  | Histo g, Histo g' -> equal_agg g g'
  | Gsum g, Gsum g' ->
    equal_agg g.num g'.num
    && Bool.equal g.ratio g'.ratio
    && Option.equal (fun (lo, hi) (lo', hi') -> Int.equal lo lo' && Int.equal hi hi') g.clip g'.clip
  | (Histo _ | Gsum _), _ -> false

let equal_group_by a b =
  match (a, b) with
  | No_group, No_group -> true
  | By_col c, By_col c' -> equal_colref c c'
  | By_fn (f, s), By_fn (f', s') -> String.equal f f' && equal_scalar s s'
  | (No_group | By_col _ | By_fn _), _ -> false

let equal a b =
  String.equal a.name b.name
  && equal_output a.output b.output
  && Int.equal a.hops b.hops
  && equal_pred a.where b.where
  && equal_group_by a.group_by b.group_by

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
