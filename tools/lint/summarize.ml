(* cmt -> module summary: the local half of mycelium-analyze.

   One pass over a module's typedtree produces, per top-level (and
   nested-module-level) binding, a symbolic summary — result sym,
   call-site table, mutable-cell table — plus the module's
   pool-purity findings, which are purely local and therefore decided
   here, with the summary.  A second, shallow pass
   collects the value paths the unit names, and an interface's
   typedtree gives its exported [val]s: the two inputs of
   unused-export.

   Conventions and approximations (DESIGN.md §15 spells these out):

   - Canonical names: local module aliases ([module Dp =
     Mycelium_dp.Dp]) are expanded, dune wrapper mangling
     ([Lib__Mod]) becomes [Lib.Mod], executables lose their
     [Dune__exe__] prefix.  The typechecker already resolved [open]s.

   - Mutable cells are tracked per (root identifier, record field):
     every write joins into the cell, every read of the identifier
     sees the join of all writes in the same function.  The function
     body is walked twice so a read textually before a write (loops,
     backpatching) still observes it.  Cross-function mutable state
     (one function writes a field, another reads it) is out of scope.

   - A closure literal passed to an unknown higher-order function is
     analyzed with its parameters bound to the join of the call's
     other arguments — the [List.map f xs] idiom flows xs through f.
     Other closures are analyzed with unknown (bottom) parameters.

   - Conditions of if/match do not taint the branches (no implicit
     flows). *)

module T = Typedtree

module IdentMap = Map.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

type pre_violation = { pv_line : int; pv_col : int; pv_msg : string }

(* ------------------------------------------------------------------ *)
(* Canonical names                                                     *)
(* ------------------------------------------------------------------ *)

let nice_unit name =
  let name =
    if String.starts_with ~prefix:"Dune__exe__" name then
      String.sub name 11 (String.length name - 11)
    else name
  in
  (* dune's alias module names the library: Mycelium_dp__.Dp is
     Mycelium_dp.Dp *)
  let name =
    if String.ends_with ~suffix:"__" name then String.sub name 0 (String.length name - 2)
    else name
  in
  (* dune wrapper mangling: Mycelium_dp__Dp -> Mycelium_dp.Dp *)
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

type state = {
  st_unit : string;
  st_source : string;
  mutable st_aliases : string IdentMap.t;  (* local module alias -> canonical *)
  mutable st_globals : string IdentMap.t;  (* unit-level value -> canonical *)
  mutable st_funs : Taint.fsummary list;
  mutable st_pool : pre_violation list;
  mutable st_anon : int;
}

let rec canon_in aliases (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match IdentMap.find_opt id aliases with
    | Some s -> s
    | None -> nice_unit (Ident.name id))
  | Path.Pdot (p, s) -> canon_in aliases p ^ "." ^ s
  | Path.Papply _ -> nice_unit (Path.name p)
  | Path.Pextra_ty (p, _) -> canon_in aliases p

let canon st p = canon_in st.st_aliases p

(* ------------------------------------------------------------------ *)
(* Small typedtree helpers                                             *)
(* ------------------------------------------------------------------ *)

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let label_string = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled l -> "~" ^ l
  | Asttypes.Optional l -> "?" ^ l

(* Immediate sub-expressions of a node, one level deep: the generic
   fallback for constructs the walker does not model. *)
let children_of (e : T.expression) =
  let acc = ref [] in
  let shallow =
    { Tast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc)
    }
  in
  Tast_iterator.default_iterator.expr shallow e;
  List.rev !acc

(* All idents bound anywhere inside an expression (closure params,
   let/match bindings, loop indices): the capture test of
   pool-purity. *)
let bound_idents_in (e : T.expression) =
  let acc = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      pat = (fun _sub p -> acc := T.pat_bound_idents p @ !acc);
      expr =
        (fun sub ex ->
          (match ex.T.exp_desc with
          | T.Texp_for (id, _, _, _, _, _) -> acc := id :: !acc
          | T.Texp_function { param; _ } -> acc := param :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr sub ex)
    }
  in
  it.expr it e;
  !acc

let mentions_any ids (e : T.expression) =
  let hit = ref false in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.T.exp_desc with
          | T.Texp_ident (Path.Pident id, _, _)
            when List.exists (Ident.same id) ids ->
            hit := true
          | _ -> ());
          if not !hit then Tast_iterator.default_iterator.expr sub ex)
    }
  in
  it.expr it e;
  !hit

(* The root identifier of a write target: digs through record fields
   and through reads like [a.(i)] / [Hashtbl.find t k]. *)
let rec root_ident (e : T.expression) =
  match e.T.exp_desc with
  | T.Texp_ident (Path.Pident id, _, _) -> Some id
  | T.Texp_ident _ -> None
  | T.Texp_field (e, _, _) -> root_ident e
  | T.Texp_apply (_, args) -> (
    match
      List.find_opt (fun (l, a) -> l = Asttypes.Nolabel && a <> None) args
    with
    | Some (_, Some a) -> root_ident a
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The per-function walker                                             *)
(* ------------------------------------------------------------------ *)

type fctx = {
  fc_st : state;
  mutable fc_env : Taint.sym IdentMap.t;
  mutable fc_calls : Taint.call list;  (* reversed *)
  mutable fc_ncalls : int;
  fc_cells : (Ident.t * string option, int) Hashtbl.t;
  mutable fc_cell_syms : Taint.sym list array;  (* writes per cell, reversed *)
  mutable fc_recording : bool;  (* false on pass 1: cells only *)
}

let cell_id fc key =
  match Hashtbl.find_opt fc.fc_cells key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length fc.fc_cells in
    Hashtbl.add fc.fc_cells key i;
    if i >= Array.length fc.fc_cell_syms then begin
      let bigger = Array.make (max 8 (2 * (i + 1))) [] in
      Array.blit fc.fc_cell_syms 0 bigger 0 (Array.length fc.fc_cell_syms);
      fc.fc_cell_syms <- bigger
    end;
    i

let cell_write fc id tag sym =
  let c = cell_id fc (id, tag) in
  fc.fc_cell_syms.(c) <- sym :: fc.fc_cell_syms.(c)

(* Reading an identifier that has mutable cells: the untagged cell
   joins in whole, the field-tagged cells become record fields so
   projections stay precise. *)
let read_ident fc id base =
  let tagged = ref [] and whole = ref [ base ] in
  Hashtbl.iter
    (fun (i, tag) c ->
      if Ident.same i id then
        match tag with
        | None -> whole := Taint.Cell c :: !whole
        | Some f -> tagged := (f, Taint.Cell c) :: !tagged)
    fc.fc_cells;
  match !tagged with
  | [] -> Taint.mk_join !whole
  | fields -> Taint.RecordS (fields, Taint.mk_join !whole)

let add_call fc fn args loc =
  let line, col = line_col loc in
  let i = fc.fc_ncalls in
  fc.fc_calls <- { Taint.c_fn = fn; c_args = args; c_line = line; c_col = col } :: fc.fc_calls;
  fc.fc_ncalls <- i + 1;
  Taint.Call i

let float_lit fc (loc : Location.t) =
  let line, _ = line_col loc in
  Taint.Lit
    {
      Taint.f_level = Taint.Public;
      f_srcs = [];
      f_eps =
        [ { Taint.o_what = "float constant"; o_file = fc.fc_st.st_source; o_line = line } ];
    }

(* value-pattern bindings against a scrutinee sym *)
let rec bind_pat fc (p : T.pattern) s =
  match p.T.pat_desc with
  | T.Tpat_var (id, _) -> fc.fc_env <- IdentMap.add id s fc.fc_env
  | T.Tpat_alias (p, id, _) ->
    fc.fc_env <- IdentMap.add id s fc.fc_env;
    bind_pat fc p s
  | T.Tpat_tuple ps | T.Tpat_array ps -> List.iter (fun p -> bind_pat fc p s) ps
  | T.Tpat_construct (_, _, ps, _) -> List.iter (fun p -> bind_pat fc p s) ps
  | T.Tpat_variant (_, po, _) -> Option.iter (fun p -> bind_pat fc p s) po
  | T.Tpat_record (fields, _) ->
    List.iter (fun (_, lbl, p) -> bind_pat fc p (Taint.mk_field lbl.Types.lbl_name s)) fields
  | T.Tpat_lazy p -> bind_pat fc p s
  | T.Tpat_or (a, b, _) ->
    bind_pat fc a s;
    bind_pat fc b s
  | T.Tpat_any | T.Tpat_constant _ -> ()

let bind_computation_pat fc (p : T.computation T.general_pattern) s =
  let value_pat, exn_pat = T.split_pattern p in
  Option.iter (fun p -> bind_pat fc p s) value_pat;
  Option.iter (fun p -> bind_pat fc p Taint.Bot) exn_pat

(* ------------------------------------------------------------------ *)
(* Expression -> sym                                                   *)
(* ------------------------------------------------------------------ *)

let rec expr_sym fc (e : T.expression) : Taint.sym =
  match e.T.exp_desc with
  | T.Texp_ident (Path.Pident id, _, _) -> (
    match IdentMap.find_opt id fc.fc_env with
    | Some s -> read_ident fc id s
    | None -> (
      match IdentMap.find_opt id fc.fc_st.st_globals with
      | Some name -> add_call fc name [] e.T.exp_loc
      | None -> read_ident fc id Taint.Bot))
  | T.Texp_ident (p, _, _) -> add_call fc (canon fc.fc_st p) [] e.T.exp_loc
  | T.Texp_constant (Asttypes.Const_float _) -> float_lit fc e.T.exp_loc
  | T.Texp_constant _ -> Taint.Bot
  | T.Texp_let (rf, vbs, body) ->
    (match rf with
    | Asttypes.Recursive ->
      List.iter (fun vb -> bind_pat_general fc vb.T.vb_pat Taint.Bot) vbs;
      List.iter (fun vb -> ignore (expr_sym fc vb.T.vb_expr)) vbs
    | Asttypes.Nonrecursive ->
      List.iter
        (fun vb ->
          let s = expr_sym fc vb.T.vb_expr in
          bind_pat_general fc vb.T.vb_pat s)
        vbs);
    expr_sym fc body
  | T.Texp_function { param; cases; _ } ->
    (* a closure used as a value: parameters unknown *)
    lambda_sym fc param cases Taint.Bot
  | T.Texp_apply (head, args) -> apply_sym fc e head args
  | T.Texp_match (scrut, cases, _) ->
    let s = expr_sym fc scrut in
    Taint.mk_join
      (List.map
         (fun c ->
           bind_computation_pat fc c.T.c_lhs s;
           Option.iter (fun g -> ignore (expr_sym fc g)) c.T.c_guard;
           expr_sym fc c.T.c_rhs)
         cases)
  | T.Texp_try (body, cases) ->
    let b = expr_sym fc body in
    Taint.mk_join
      (b
      :: List.map
           (fun c ->
             bind_pat fc c.T.c_lhs Taint.Bot;
             Option.iter (fun g -> ignore (expr_sym fc g)) c.T.c_guard;
             expr_sym fc c.T.c_rhs)
           cases)
  | T.Texp_tuple es | T.Texp_array es -> Taint.mk_join (List.map (expr_sym fc) es)
  | T.Texp_construct (_, _, es) -> Taint.mk_join (List.map (expr_sym fc) es)
  | T.Texp_variant (_, eo) -> (
    match eo with Some e -> expr_sym fc e | None -> Taint.Bot)
  | T.Texp_record { fields; extended_expression; _ } ->
    let base =
      match extended_expression with
      | Some e -> expr_sym fc e
      | None -> Taint.Bot
    in
    let fs =
      Array.to_list fields
      |> List.map (fun (lbl, def) ->
             let name = lbl.Types.lbl_name in
             match def with
             | T.Kept (_, _) -> (name, Taint.mk_field name base)
             | T.Overridden (_, e) -> (name, expr_sym fc e))
    in
    Taint.RecordS (fs, Taint.Bot)
  | T.Texp_field (e, _, lbl) -> Taint.mk_field lbl.Types.lbl_name (expr_sym fc e)
  | T.Texp_setfield (target, _, lbl, value) ->
    let v = expr_sym fc value in
    ignore (expr_sym fc target);
    (match root_ident target with
    | Some id -> cell_write fc id (Some lbl.Types.lbl_name) v
    | None -> ());
    Taint.Bot
  | T.Texp_sequence (a, b) ->
    ignore (expr_sym fc a);
    expr_sym fc b
  | T.Texp_ifthenelse (c, t, eo) ->
    ignore (expr_sym fc c);
    let t = expr_sym fc t in
    Taint.mk_join (t :: (match eo with Some e -> [ expr_sym fc e ] | None -> []))
  | T.Texp_while (c, body) ->
    ignore (expr_sym fc c);
    ignore (expr_sym fc body);
    Taint.Bot
  | T.Texp_for (id, _, lo, hi, _, body) ->
    ignore (expr_sym fc lo);
    ignore (expr_sym fc hi);
    fc.fc_env <- IdentMap.add id Taint.Bot fc.fc_env;
    ignore (expr_sym fc body);
    Taint.Bot
  | T.Texp_open (_, body) -> expr_sym fc body
  | T.Texp_letmodule (ido, _, _, mexpr, body) ->
    (match (ido, mexpr.T.mod_desc) with
    | Some id, T.Tmod_ident (p, _) ->
      fc.fc_st.st_aliases <- IdentMap.add id (canon fc.fc_st p) fc.fc_st.st_aliases
    | _ -> ());
    expr_sym fc body
  | T.Texp_lazy e -> expr_sym fc e
  | T.Texp_assert (e, _) ->
    ignore (expr_sym fc e);
    Taint.Bot
  | _ ->
    (* generic: join of the immediate children, so calls inside
       unmodelled constructs are still recorded *)
    Taint.mk_join (List.map (expr_sym fc) (children_of e))

and bind_pat_general :
    type k. fctx -> k T.general_pattern -> Taint.sym -> unit =
 fun fc p s ->
  match T.classify_pattern p with
  | T.Value -> bind_pat fc p s
  | T.Computation -> bind_computation_pat fc p s

(* A closure literal: [param_sym] is what flows into its parameter
   chain (bottom when unknown, the sibling-argument join under the
   higher-order heuristic).  Returns the body's result sym. *)
and lambda_sym fc param cases param_sym =
  fc.fc_env <- IdentMap.add param param_sym fc.fc_env;
  Taint.mk_join
    (List.map
       (fun c ->
         bind_pat_general fc c.T.c_lhs param_sym;
         Option.iter (fun g -> ignore (expr_sym fc g)) c.T.c_guard;
         expr_sym fc c.T.c_rhs)
       cases)

and apply_sym fc e head args =
  let arg_exprs = List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args in
  match head.T.exp_desc with
  | T.Texp_ident (p, _, _) ->
    let fn =
      match p with
      | Path.Pident id -> (
        match IdentMap.find_opt id fc.fc_st.st_globals with
        | Some name -> Some name
        | None -> if IdentMap.mem id fc.fc_env then None else Some (canon fc.fc_st p))
      | _ -> Some (canon fc.fc_st p)
    in
    (match fn with
    | None ->
      (* call through a local binding: the binding's sym already
         approximates the closure's result *)
      let s = expr_sym fc head in
      Taint.mk_join (s :: List.map (fun (_, a) -> expr_sym fc a) arg_exprs)
    | Some fn ->
      if Policy.is_pool_entry fn then check_pool_purity fc arg_exprs;
      (* each argument is walked exactly once; non-lambda args first,
         so literal lambdas can see the join of their siblings (the
         higher-order heuristic) *)
      let pre =
        List.map
          (fun (l, a) ->
            match a.T.exp_desc with
            | T.Texp_function _ -> (l, a, None)
            | _ -> (l, a, Some (expr_sym fc a)))
          arg_exprs
      in
      let sibling = Taint.mk_join (List.filter_map (fun (_, _, s) -> s) pre) in
      let arg_syms =
        List.map
          (fun (l, a, s) ->
            let s =
              match (s, a.T.exp_desc) with
              | Some s, _ -> s
              | None, T.Texp_function { param; cases; _ } ->
                lambda_sym fc param cases sibling
              | None, _ -> Taint.Bot
            in
            (label_string l, s))
          pre
      in
      (match Policy.writer_of fn with
      | Some w -> (
        let positional =
          List.concat_map
            (fun ((l, a, _), (_, s)) ->
              if l = Asttypes.Nolabel then [ (a, s) ] else [])
            (List.combine pre arg_syms)
        in
        match List.nth_opt positional w.Policy.w_target with
        | Some (target, _) -> (
          match root_ident target with
          | Some id ->
            let v =
              match w.Policy.w_value with
              | Some vi -> (
                match List.nth_opt positional vi with
                | Some (_, s) -> s
                | None -> Taint.Bot)
              | None -> Taint.Bot
            in
            cell_write fc id None v
          | None -> ())
        | None -> ())
      | None -> ());
      add_call fc fn arg_syms e.T.exp_loc)
  | T.Texp_function { param; cases; _ } ->
    (* immediately-applied lambda: inline the first argument *)
    let first =
      match arg_exprs with
      | (_, a) :: _ -> expr_sym fc a
      | [] -> Taint.Bot
    in
    List.iter
      (fun (_, a) ->
        match a.T.exp_desc with
        | T.Texp_function _ -> ()
        | _ -> ignore (expr_sym fc a))
      (match arg_exprs with [] -> [] | _ :: rest -> rest);
    lambda_sym fc param cases first
  | _ ->
    Taint.mk_join (expr_sym fc head :: List.map (fun (_, a) -> expr_sym fc a) arg_exprs)

(* ------------------------------------------------------------------ *)
(* pool-purity                                                         *)
(* ------------------------------------------------------------------ *)

(* Closures passed positionally to Pool entry points must not write
   captured mutable state, unless the write is evidently
   disjoint-by-index: the element/offset argument mentions a variable
   bound inside the closure.  The sequential-decide /
   parallel-compute / sequential-merge shape falls out: decide and
   merge code runs outside the closure and may mutate freely. *)
and check_pool_purity fc arg_exprs =
  List.iter
    (fun (l, a) ->
      match (l, a.T.exp_desc) with
      | Asttypes.Nolabel, T.Texp_function _ ->
        let bound = bound_idents_in a in
        let report (loc : Location.t) msg =
          let line, col = line_col loc in
          if fc.fc_recording then
            fc.fc_st.st_pool <-
              { pv_line = line; pv_col = col; pv_msg = msg } :: fc.fc_st.st_pool
        in
        let it =
          { Tast_iterator.default_iterator with
            expr =
              (fun sub ex ->
                (match ex.T.exp_desc with
                | T.Texp_setfield (target, _, lbl, _) -> (
                  match root_ident target with
                  | Some id when not (List.exists (Ident.same id) bound) ->
                    if not (mentions_any bound target) then
                      report ex.T.exp_loc
                        (Printf.sprintf
                           "closure passed to the pool writes field '%s' of captured '%s'; \
                            parallel tasks may only write disjoint-by-index slots or \
                            mutate outside the closure (sequential decide/merge)"
                           lbl.Types.lbl_name (Ident.name id))
                  | _ -> ())
                | T.Texp_apply ({ T.exp_desc = T.Texp_ident (p, _, _); _ }, wargs) -> (
                  match Policy.writer_of (canon fc.fc_st p) with
                  | Some w -> (
                    let positional =
                      List.filter_map
                        (fun (l, a) ->
                          match (l, a) with
                          | Asttypes.Nolabel, Some a -> Some a
                          | _ -> None)
                        wargs
                    in
                    match List.nth_opt positional w.Policy.w_target with
                    | Some target -> (
                      match root_ident target with
                      | Some id when not (List.exists (Ident.same id) bound) ->
                        let disjoint =
                          match w.Policy.w_index with
                          | Some ii -> (
                            match List.nth_opt positional ii with
                            | Some ie -> mentions_any bound ie
                            | None -> false)
                          | None -> false
                        in
                        if not disjoint then
                          report ex.T.exp_loc
                            (Printf.sprintf
                               "closure passed to the pool mutates captured '%s' via %s \
                                with no closure-bound index; prove the writes \
                                disjoint-by-index or move them to the sequential \
                                decide/merge phase"
                               (Ident.name id) w.Policy.w_fn)
                      | _ -> ())
                    | None -> ())
                  | None -> ())
                | _ -> ());
                Tast_iterator.default_iterator.expr sub ex)
          }
        in
        it.expr it a
      | _ -> ())
    arg_exprs

(* ------------------------------------------------------------------ *)
(* Bindings and structures                                             *)
(* ------------------------------------------------------------------ *)

(* Walk a binding's leading fun-chain collecting parameter labels;
   multi-case [function] terminates the chain. *)
let rec fun_chain fc idx (e : T.expression) (labels : string list) =
  match e.T.exp_desc with
  | T.Texp_function { arg_label; param; cases; _ } -> (
    let labels = labels @ [ label_string arg_label ] in
    match cases with
    | [ { T.c_lhs; c_guard = None; c_rhs } ] ->
      bind_pat_general fc c_lhs (Taint.Param idx);
      fc.fc_env <- IdentMap.add param (Taint.Param idx) fc.fc_env;
      fun_chain fc (idx + 1) c_rhs labels
    | _ ->
      fc.fc_env <- IdentMap.add param (Taint.Param idx) fc.fc_env;
      let body =
        Taint.mk_join
          (List.map
             (fun c ->
               bind_pat_general fc c.T.c_lhs (Taint.Param idx);
               Option.iter (fun g -> ignore (expr_sym fc g)) c.T.c_guard;
               expr_sym fc c.T.c_rhs)
             cases)
      in
      (labels, body))
  | _ -> (labels, expr_sym fc e)

let fresh_fctx st =
  {
    fc_st = st;
    fc_env = IdentMap.empty;
    fc_calls = [];
    fc_ncalls = 0;
    fc_cells = Hashtbl.create 8;
    fc_cell_syms = Array.make 8 [];
    fc_recording = false;
  }

let summarize_binding st name (expr : T.expression) =
  let line, _ = line_col expr.T.exp_loc in
  let fc = fresh_fctx st in
  (* pass 1: discover mutable cells (reads before writes) *)
  ignore (fun_chain fc 0 expr []);
  (* pass 2: the real walk against the full cell map *)
  fc.fc_env <- IdentMap.empty;
  fc.fc_calls <- [];
  fc.fc_ncalls <- 0;
  Array.iteri (fun i _ -> fc.fc_cell_syms.(i) <- []) fc.fc_cell_syms;
  fc.fc_recording <- true;
  let labels, result = fun_chain fc 0 expr [] in
  let tags = Array.make (Hashtbl.length fc.fc_cells) None in
  Hashtbl.iter (fun (_, tag) c -> tags.(c) <- tag) fc.fc_cells;
  let cells =
    Array.init (Hashtbl.length fc.fc_cells) (fun i ->
        [ (tags.(i), Taint.mk_join (List.rev fc.fc_cell_syms.(i))) ])
  in
  st.st_funs <-
    {
      Taint.fs_name = name;
      fs_params = labels;
      fs_result = result;
      fs_calls = Array.of_list (List.rev fc.fc_calls);
      fs_cells = cells;
      fs_line = line;
    }
    :: st.st_funs

let rec structure_items st prefix items =
  (* register the unit's own bindings first so forward and recursive
     references resolve to canonical names *)
  List.iter
    (fun (si : T.structure_item) ->
      match si.T.str_desc with
      | T.Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.T.vb_pat.T.pat_desc with
            | T.Tpat_var (id, _) | T.Tpat_alias (_, id, _) ->
              st.st_globals <-
                IdentMap.add id (prefix ^ "." ^ Ident.name id) st.st_globals
            | _ -> ())
          vbs
      | T.Tstr_module mb -> (
        match (mb.T.mb_id, mb.T.mb_expr.T.mod_desc) with
        | Some id, T.Tmod_ident (p, _) ->
          st.st_aliases <- IdentMap.add id (canon st p) st.st_aliases
        | Some id, (T.Tmod_structure _ | T.Tmod_constraint _) ->
          st.st_aliases <- IdentMap.add id (prefix ^ "." ^ Ident.name id) st.st_aliases
        | _ -> ())
      | _ -> ())
    items;
  List.iter
    (fun (si : T.structure_item) ->
      match si.T.str_desc with
      | T.Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.T.vb_pat.T.pat_desc with
            | T.Tpat_var (id, _) | T.Tpat_alias (_, id, _) ->
              summarize_binding st (prefix ^ "." ^ Ident.name id) vb.T.vb_expr
            | _ ->
              st.st_anon <- st.st_anon + 1;
              summarize_binding st
                (Printf.sprintf "%s.(toplevel#%d)" prefix st.st_anon)
                vb.T.vb_expr)
          vbs
      | T.Tstr_eval (e, _) ->
        st.st_anon <- st.st_anon + 1;
        summarize_binding st (Printf.sprintf "%s.(toplevel#%d)" prefix st.st_anon) e
      | T.Tstr_module mb -> (
        match mb.T.mb_id with
        | Some id -> module_expr st (prefix ^ "." ^ Ident.name id) mb.T.mb_expr
        | None -> ())
      | _ -> ())
    items

and module_expr st prefix (m : T.module_expr) =
  match m.T.mod_desc with
  | T.Tmod_structure s -> structure_items st prefix s.T.str_items
  | T.Tmod_constraint (inner, _, _, _) -> module_expr st prefix inner
  | T.Tmod_ident _ | T.Tmod_functor _ | T.Tmod_apply _ | T.Tmod_apply_unit _
  | T.Tmod_unpack _ ->
    ()

(* ------------------------------------------------------------------ *)
(* References and exports: the inputs of unused-export                 *)
(* ------------------------------------------------------------------ *)

(* Every value path a unit names outside its local scope, canonical,
   sorted and deduplicated.  Module aliases resolve ([module Bgv =
   Mycelium_bgv.Bgv] makes [Bgv.x] name [Mycelium_bgv.Bgv.x]); an
   alias or an [open] names nothing by itself.  A module used whole —
   a functor argument, an [include], a packed first-class module —
   contributes its name with a trailing dot, so every value under it
   counts as named.  The standard library is left out. *)
let refs_of_structure (str : T.structure) =
  let aliases = ref IdentMap.empty and refs = ref [] in
  let canon p = canon_in !aliases p in
  let add name =
    if not (String.starts_with ~prefix:"Stdlib." name) then refs := name :: !refs
  in
  let alias id (me : T.module_expr) =
    match me.T.mod_desc with
    | T.Tmod_ident (p, _)
    | T.Tmod_constraint ({ T.mod_desc = T.Tmod_ident (p, _); _ }, _, _, _) ->
      aliases := IdentMap.add id (canon p) !aliases;
      true
    | _ -> false
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.T.exp_desc with
          | T.Texp_ident ((Path.Pdot _ as p), _, _) -> add (canon p)
          | T.Texp_letmodule (Some id, _, _, me, body) when alias id me -> sub.expr sub body
          | _ -> Tast_iterator.default_iterator.expr sub e);
      module_binding =
        (fun sub mb ->
          match mb.T.mb_id with
          | Some id when alias id mb.T.mb_expr -> ()
          | _ -> Tast_iterator.default_iterator.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          match od.T.open_expr.T.mod_desc with
          | T.Tmod_ident _ -> ()
          | _ -> Tast_iterator.default_iterator.open_declaration sub od);
      module_expr =
        (fun sub me ->
          match me.T.mod_desc with
          | T.Tmod_ident (p, _) -> add (canon p ^ ".")
          | _ -> Tast_iterator.default_iterator.module_expr sub me);
    }
  in
  it.structure it str;
  List.sort_uniq String.compare !refs

let exports_of_signature unit_name (sg : T.signature) =
  let acc = ref [] in
  let rec items prefix (sg : T.signature) =
    List.iter
      (fun (si : T.signature_item) ->
        match si.T.sig_desc with
        | T.Tsig_value vd ->
          acc := (prefix ^ "." ^ Ident.name vd.T.val_id, fst (line_col vd.T.val_loc)) :: !acc
        | T.Tsig_module
            { T.md_id = Some id; md_type = { T.mty_desc = T.Tmty_signature s; _ }; _ } ->
          items (prefix ^ "." ^ Ident.name id) s
        | _ -> ())
      sg.T.sig_items
  in
  items unit_name sg;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let source_of (cmt : Cmt_format.cmt_infos) path =
  match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> path

(* [~summarize:false] reads only the references: the unit is a caller,
   outside the roots the privacy rules check. *)
let of_cmt ~summarize path : Taint.msummary option =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
    let unit_name = nice_unit cmt.Cmt_format.cmt_modname in
    let st =
      {
        st_unit = unit_name;
        st_source = source_of cmt path;
        st_aliases = IdentMap.empty;
        st_globals = IdentMap.empty;
        st_funs = [];
        st_pool = [];
        st_anon = 0;
      }
    in
    if summarize then structure_items st unit_name str.T.str_items;
    Some
      {
        Taint.m_unit = st.st_unit;
        m_source = st.st_source;
        m_funs = List.rev st.st_funs;
        m_pool =
          List.rev_map (fun pv -> (pv.pv_line, pv.pv_col, pv.pv_msg)) st.st_pool;
        m_refs = refs_of_structure str;
      }
  | _ -> None

let of_cmti path : Taint.isummary option =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Interface sg ->
    let unit_name = nice_unit cmt.Cmt_format.cmt_modname in
    Some
      {
        Taint.i_unit = unit_name;
        i_source = source_of cmt path;
        i_vals = exports_of_signature unit_name sg;
      }
  | _ -> None
