(* The taint lattice and the symbolic summary IR of mycelium-analyze
   (DESIGN.md §15).

   A value's privacy state is a point on the four-level chain

       Public  ⊑  Noised  ⊑  Clipped  ⊑  Secret

   ordered by how dangerous it is to release: [Secret] is raw
   per-user data (neighborhoods, decrypted pre-noise aggregates),
   [Clipped] has bounded sensitivity but no noise yet, [Noised] has
   been through calibrated noise and is releasable, [Public] never
   touched user data.  Join goes toward [Secret].

   Sanitizers are monotone maps on the chain, represented as
   4-element rank tables so they compose trivially:
   clip sends Secret to Clipped and fixes everything else; noise
   sends Clipped to Noised but leaves Secret alone — noise applied
   to unclipped data has unbounded sensitivity and sanitizes
   nothing, which is exactly the Clipped→Noised ordering the
   dp-release rule enforces.

   Per-function facts are *symbolic*: a [sym] is a tree over the
   function's parameters, its call sites (by index into the
   function's site table) and its mutable cells, so a module can be
   summarized once and evaluated later against whatever the rest of
   the repo turns out to pass in.  Evaluation happens in [Analyze]'s global fixpoint; the
   concrete summary [conc] a fixpoint round produces for a function
   is affine: a base fact joined with, per parameter, a rank table
   and an epsilon-passthrough bit. *)

type level = Public | Noised | Clipped | Secret

let rank = function Public -> 0 | Noised -> 1 | Clipped -> 2 | Secret -> 3
let of_rank = function 0 -> Public | 1 -> Noised | 2 -> Clipped | _ -> Secret

let level_name = function
  | Public -> "Public"
  | Noised -> "Noised"
  | Clipped -> "Clipped"
  | Secret -> "Secret"

let level_join a b = if rank a >= rank b then a else b

(* A witness: where a Secret source, a float constant or an env read
   entered the flow.  [o_what] is a short human label ("source
   Mycelium_graph.Contact_graph.generate", "float constant", ...). *)
type origin = { o_what : string; o_file : string; o_line : int }

let origin_compare a b =
  let c = String.compare a.o_file b.o_file in
  if c <> 0 then c
  else
    let c = Int.compare a.o_line b.o_line in
    if c <> 0 then c else String.compare a.o_what b.o_what

let origins_union a b = List.sort_uniq origin_compare (List.rev_append a b)

(* The concrete fact about one value: its level, the source origins
   that explain the level (dp-release diagnostics), and the
   constant/env origins that reached it (epsilon-flow). *)
type fact = { f_level : level; f_srcs : origin list; f_eps : origin list }

let bot_fact = { f_level = Public; f_srcs = []; f_eps = [] }

let fact_join a b =
  if a == b then a
  else
    {
      f_level = level_join a.f_level b.f_level;
      f_srcs = origins_union a.f_srcs b.f_srcs;
      f_eps = origins_union a.f_eps b.f_eps;
    }

let fact_equal a b =
  a.f_level = b.f_level && a.f_srcs = b.f_srcs && a.f_eps = b.f_eps

(* ------------------------------------------------------------------ *)
(* Rank tables: monotone level -> level maps                           *)
(* ------------------------------------------------------------------ *)

type tf = int array (* length 4; tf.(rank l) = rank of the image *)

let tf_id = [| 0; 1; 2; 3 |]
let tf_clip = [| 0; 1; 2; 2 |]
let tf_noise = [| 0; 1; 1; 3 |]
let tf_dead = [| 0; 0; 0; 0 |]

let tf_apply (t : tf) l = of_rank t.(rank l)
let tf_compose (a : tf) (b : tf) : tf = Array.init 4 (fun i -> a.(b.(i)))
let tf_join (a : tf) (b : tf) : tf = Array.init 4 (fun i -> max a.(i) b.(i))

(* A table through which no taint survives carries no witnesses
   either. *)
let tf_passes (t : tf) = Array.exists (fun r -> r > 0) t

(* ------------------------------------------------------------------ *)
(* Symbolic values                                                     *)
(* ------------------------------------------------------------------ *)

(* [Call i] / [Cell i] index into the owning function's [fs_calls] /
   [fs_cells] tables, so the result sym, the site list and the cell
   contents share structure and marshal as plain data. *)
type sym =
  | Bot
  | Lit of fact
  | Param of int
  | Join of sym list
  | Call of int
  | Field of string * sym
  | RecordS of (string * sym) list * sym
  | Cell of int

(* Structural field projection, resolved as far as the shape allows
   at construction time; an opaque inner sym degrades to
   whole-value flow. *)
let rec mk_field label s =
  match s with
  | Bot -> Bot
  | RecordS (fields, base) -> (
    match List.assoc_opt label fields with
    | Some f -> (
      match base with Bot -> f | _ -> Join [ f; mk_field label base ])
    | None -> mk_field label base)
  | Join ss -> Join (List.map (mk_field label) ss)
  | Lit _ | Param _ | Call _ | Field _ | Cell _ -> Field (label, s)

let mk_join = function [] -> Bot | [ s ] -> s | ss -> Join ss

(* One call site: canonical callee name, labelled argument syms in
   application order ("" = positional), and the source position. *)
type call = {
  c_fn : string;
  c_args : (string * sym) list;
  c_line : int;
  c_col : int;
}

(* A per-function summary.  [fs_params] are the parameter labels in
   curried order ("" positional, "~l" labelled, "?l" optional);
   [fs_cells] holds the joined writes of each mutable cell the body
   assigns (refs, arrays, hashtables, record fields), tagged with
   the record field name when the write was a setfield. *)
type fsummary = {
  fs_name : string;
  fs_params : string list;
  fs_result : sym;
  fs_calls : call array;
  fs_cells : (string option * sym) list array;
  fs_line : int;
}

(* A module summary: what the analyzer reads out of one cmt.  A unit read only
   for its references (a caller outside the checked roots) has empty
   [m_funs] and [m_pool]. *)
type msummary = {
  m_unit : string;  (* canonical unit name, e.g. "Mycelium_dp.Dp" *)
  m_source : string;  (* repo-relative source path *)
  m_funs : fsummary list;
  m_pool : (int * int * string) list;  (* pool-purity pre-violations *)
  m_refs : string list;
      (* canonical value paths the unit names outside its local scope,
         sorted; a module used whole ends with a dot *)
}

(* An interface summary: what the analyzer reads out of one cmti — the [val]s
   it exports, nested signatures included, with their lines. *)
type isummary = {
  i_unit : string;
  i_source : string;  (* repo-relative .mli path *)
  i_vals : (string * int) list;  (* canonical name, line *)
}

(* ------------------------------------------------------------------ *)
(* Abstract values: affine in the enclosing function's parameters      *)
(* ------------------------------------------------------------------ *)

type coeff = { k_tf : tf; k_eps : bool }

let coeff_id = { k_tf = tf_id; k_eps = true }

let coeff_join a b = { k_tf = tf_join a.k_tf b.k_tf; k_eps = a.k_eps || b.k_eps }

let coeff_equal a b = a.k_tf = b.k_tf && a.k_eps = b.k_eps

type absval = { v_base : fact; v_coeffs : (int * coeff) list (* sorted *) }

let bot_av = { v_base = bot_fact; v_coeffs = [] }

let av_of_fact f = { v_base = f; v_coeffs = [] }

let av_param i = { v_base = bot_fact; v_coeffs = [ (i, coeff_id) ] }

let rec merge_coeffs a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (i, ca) :: ta, (j, cb) :: tb ->
    if i = j then (i, coeff_join ca cb) :: merge_coeffs ta tb
    else if i < j then (i, ca) :: merge_coeffs ta ((j, cb) :: tb)
    else (j, cb) :: merge_coeffs ((i, ca) :: ta) tb

let av_join a b =
  if a == b then a
  else
    { v_base = fact_join a.v_base b.v_base; v_coeffs = merge_coeffs a.v_coeffs b.v_coeffs }

let av_joins l = List.fold_left av_join bot_av l

(* Push a value through a sanitizer / transfer table. *)
let av_map_tf t av =
  {
    v_base =
      {
        f_level = tf_apply t av.v_base.f_level;
        f_srcs = (if tf_passes t then av.v_base.f_srcs else []);
        f_eps = av.v_base.f_eps;
      };
    v_coeffs =
      List.filter_map
        (fun (i, c) ->
          let t' = tf_compose t c.k_tf in
          if (not (tf_passes t')) && not c.k_eps then None
          else Some (i, { c with k_tf = t' }))
        av.v_coeffs;
  }

(* Strip the constant/env provenance: unknown external functions
   launder epsilon provenance (a float that went through arbitrary
   library plumbing is no longer evidently "a constant") but are
   conservative for levels (secrets stay secret through e.g.
   [String.concat]). *)
let av_drop_eps av =
  {
    v_base = { av.v_base with f_eps = [] };
    v_coeffs =
      List.filter_map
        (fun (i, c) ->
          if tf_passes c.k_tf then Some (i, { c with k_eps = false }) else None)
        av.v_coeffs;
  }

(* Instantiate an abstract value against concrete per-parameter
   facts (missing parameters stay bottom). *)
let fact_of_av (params : fact array) av =
  List.fold_left
    (fun acc (i, c) ->
      if i >= Array.length params then acc
      else
        let p = params.(i) in
        fact_join acc
          {
            f_level = tf_apply c.k_tf p.f_level;
            f_srcs = (if tf_passes c.k_tf then p.f_srcs else []);
            f_eps = (if c.k_eps then p.f_eps else []);
          })
    av.v_base av.v_coeffs

(* ------------------------------------------------------------------ *)
(* Concrete summaries                                                  *)
(* ------------------------------------------------------------------ *)

(* What a whole function does to its arguments, as computed by the
   global fixpoint: a base fact (taint created inside, regardless of
   arguments) plus an optional coefficient per parameter. *)
type conc = { cn_base : fact; cn_coeffs : coeff option array }

let conc_bot arity = { cn_base = bot_fact; cn_coeffs = Array.make arity None }

let conc_equal a b =
  fact_equal a.cn_base b.cn_base
  && Array.length a.cn_coeffs = Array.length b.cn_coeffs
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some cx, Some cy -> coeff_equal cx cy
         | _ -> false)
       a.cn_coeffs b.cn_coeffs

(* Apply a concrete summary to abstract arguments (already matched
   to parameter positions; [None] = argument not supplied). *)
let conc_apply cn (args : absval option array) =
  let acc = ref (av_of_fact cn.cn_base) in
  Array.iteri
    (fun i c ->
      match (c, if i < Array.length args then args.(i) else None) with
      | Some c, Some av ->
        let through = av_map_tf c.k_tf av in
        let through = if c.k_eps then through else av_drop_eps through in
        acc := av_join !acc through
      | _ -> ())
    cn.cn_coeffs;
  !acc
