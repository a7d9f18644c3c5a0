(* The rule catalogue.  Each rule is a pure function from a parsed
   compilation unit to violations; the engine (lint.ml) decides which
   rules apply to which zone of the tree and applies suppressions.
   Every rule is motivated by a bug this repository actually shipped —
   the catalogue with war stories lives in DESIGN.md §10. *)

open Parsetree
open Lint_ast

type zone =
  | Lib  (** everything under lib/ *)
  | Lib_hot  (** lib/math and lib/bgv — the traced hot paths *)
  | Lib_rng  (** lib/util/rng.ml — the one sanctioned randomness source *)
  | Bin
  | Bench
  | Test

type violation = { rule : string; file : string; line : int; col : int; msg : string }

let viol rule file loc msg =
  let line, col = line_col loc in
  { rule; file; line; col; msg }

(* ------------------------------------------------------------------ *)
(* Rule 1: poly-compare                                               *)
(* ------------------------------------------------------------------ *)

(* Past bug: PR 4's [Rq.equal] compared ciphertext polynomials with
   polymorphic [=] across Coeff/Eval representations — structurally
   different, mathematically equal.  Ban polymorphic comparison at
   structured operands and every use of bare [compare],
   [Hashtbl.hash] and polymorphic [List.mem]/[assoc] in lib/. *)

let list_mem_like = [ "mem"; "assoc"; "assoc_opt"; "mem_assoc" ]

let poly_compare ~file str =
  let out = ref [] in
  let add loc msg = out := viol "poly-compare" file loc msg :: !out in
  (* start offsets of identifiers already handled as application heads,
     so the bare-identifier case below does not double-report them *)
  let consumed = ref [] in
  let consume loc = consumed := fst (loc_range loc) :: !consumed in
  let is_consumed loc =
    let s = fst (loc_range loc) in
    List.exists (Int.equal s) !consumed
  in
  let flag_path loc = function
    | [ "compare" ] ->
      add loc
        "polymorphic Stdlib.compare; use a typed compare (Int.compare, \
         Float.compare, M.compare)"
    | [ "Hashtbl"; "hash" ] ->
      add loc "Hashtbl.hash is polymorphic; hash a typed serialization instead"
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as _head), args)
            -> (
            let path = norm_path txt in
            match (path, args) with
            | [ (("=" | "<>") as op) ], [ (_, a); (_, b) ] ->
              consume loc;
              if
                (not (evidently_immediate a || evidently_immediate b))
                && (evidently_structured a || evidently_structured b)
              then
                add loc
                  (Printf.sprintf
                     "polymorphic (%s) on structured operands; use a typed equal \
                      (Int.equal, Float.equal, M.equal)"
                     op)
            | [ "compare" ], _ | [ "Hashtbl"; "hash" ], _ ->
              consume loc;
              flag_path loc path
            | [ "List"; fn ], (_, key) :: _ when List.mem fn list_mem_like ->
              consume loc;
              if not (evidently_immediate key) then
                add loc
                  (Printf.sprintf
                     "polymorphic List.%s; use List.exists/find_opt with a typed \
                      equal"
                     fn)
            | _ -> ())
          | Pexp_ident { txt; loc } when not (is_consumed loc) -> (
            match norm_path txt with
            | [ ("=" | "<>") ] ->
              add loc
                "polymorphic comparison operator passed as a value; pass a typed \
                 equal instead"
            | path -> flag_path loc path)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ------------------------------------------------------------------ *)
(* Rule 2: determinism                                                *)
(* ------------------------------------------------------------------ *)

(* Contract: released values are byte-identical across runs, domain
   counts and tracing states.  Process-global randomness, wall clocks
   and unordered hash-table iteration are banned from lib/ and bin/
   (lib/util/rng.ml and bench/ excepted); measurement-only uses carry
   a reasoned suppression. *)

let determinism ~file str =
  let out = ref [] in
  let add loc msg = out := viol "determinism" file loc msg :: !out in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
            match norm_path txt with
            | "Random" :: _ :: _ ->
              add loc
                "Stdlib.Random is process-global and seed-unmanaged; thread an \
                 explicit Rng.t (lib/util/rng.mli)"
            | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
              add loc "wall-clock read; released values must not depend on time"
            | [ "Hashtbl"; ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ]
              ->
              add loc
                "Hashtbl iteration order is unspecified; sort the bindings before \
                 they can feed a released value"
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ------------------------------------------------------------------ *)
(* Rule 3: rng-capture                                                *)
(* ------------------------------------------------------------------ *)

(* The domain-ownership rule of rng.mli: an [Rng.t] advanced inside a
   [Pool] task is a data race and a scheduling dependence.  Flag any
   closure literal passed to Pool.map_array/mapi_array/init
   that references an rng-ish name it does not bind itself — the
   sanctioned pattern makes a task-local stream with [Rng.keyed] from
   the task's stable coordinates inside the task. *)

let pool_entry_points = [ "map_array"; "mapi_array"; "init" ]

let rng_capture ~file str =
  let out = ref [] in
  let check_closure f =
    let bound = bound_vars_in f in
    iter_idents f (fun lid loc ->
        match lid with
        | Longident.Lident n when rngish n && not (List.exists (String.equal n) bound)
          ->
          out :=
            viol "rng-capture" file loc
              (Printf.sprintf
                 "Rng stream `%s' captured by a Pool task; make a task-local \
                  generator with Rng.keyed from the task's stable coordinates \
                  instead (rng.mli, domain ownership rule)"
                 n)
            :: !out
        | lid when (match List.rev (flatten lid) with
                   | last :: _ :: _ -> rngish last
                   | _ -> false) ->
          out :=
            viol "rng-capture" file loc
              "shared record field holding an Rng stream dereferenced inside a \
               Pool task; derive a task-local generator instead (rng.mli, domain \
               ownership rule)"
            :: !out
        | _ -> ())
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            match List.rev (norm_path txt) with
            | fn :: "Pool" :: _ when List.exists (String.equal fn) pool_entry_points
              ->
              List.iter
                (fun (_, a) ->
                  match as_fun_literal a with
                  | Some f -> check_closure f
                  | None -> ())
                args
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ------------------------------------------------------------------ *)
(* Rule 4: obs-guard                                                  *)
(* ------------------------------------------------------------------ *)

(* The lib/obs overhead contract: in the hot modules (lib/math,
   lib/bgv) every span/metric update sits under an [Obs.enabled]
   guard, and the disabled path performs no allocation-producing work
   (string building, closure construction). *)

let obs_update_heads path =
  match path with
  | [ "Obs"; ("span" | "sampled_span") ]
  | [ "Mycelium_obs"; "Obs"; ("span" | "sampled_span") ]
  | [ "Obs"; "Metrics"; ("incr" | "add" | "set" | "observe") ]
  | [ "Mycelium_obs"; "Obs"; "Metrics"; ("incr" | "add" | "set" | "observe") ] ->
    true
  | _ -> false

let allocating_head path =
  match path with
  | [ "Printf"; "sprintf" ]
  | [ "Format"; ("asprintf" | "sprintf") ]
  | [ "String"; ("concat" | "cat") ]
  | [ ("^" | "^^" | "@") ] ->
    true
  (* Bigarray scratch creation: a malloc + custom-block allocation,
     far too heavy for the disabled fast path of a kernel (the
     Mont_backend butterflies keep theirs in domain-local state). *)
  | [ "Bigarray"; ("Array1" | "Array2" | "Array3" | "Genarray"); "create" ]
  | [ ("Array1" | "Array2" | "Array3" | "Genarray"); "create" ] ->
    true
  | _ -> false

let obs_guard ~file str =
  (* pass 1: collect the character ranges of enabled- and
     disabled-path branches of Obs.enabled guards *)
  let enabled_ranges = ref [] and disabled_ranges = ref [] in
  let note polarity (e : expression) =
    let r = loc_range e.pexp_loc in
    match polarity with
    | `On -> enabled_ranges := r :: !enabled_ranges
    | `Off -> disabled_ranges := r :: !disabled_ranges
  in
  let collect =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ifthenelse (cond, then_, else_) when mentions_enabled cond -> (
            match guard_polarity cond with
            | `On ->
              note `On then_;
              Option.iter (note `Off) else_
            | `Off ->
              note `Off then_;
              Option.iter (note `On) else_
            | `Unknown ->
              (* complex condition: treat both branches as consciously
                 guarded, no disabled-path classification *)
              note `On then_;
              Option.iter (note `On) else_)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  collect.structure collect str;
  let in_any ranges loc = List.exists (fun r -> within r loc) ranges in
  (* pass 2: flag unguarded updates and disabled-path allocations *)
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
            when obs_update_heads (norm_path txt) ->
            if not (in_any !enabled_ranges loc) then
              out :=
                viol "obs-guard" file loc
                  "Obs span/metric update in a hot module outside an `if \
                   Obs.enabled ()' guard; the disabled path must be one flag load \
                   + branch (DESIGN.md §8)"
                :: !out
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
            when allocating_head (norm_path txt) && in_any !disabled_ranges loc ->
            out :=
              viol "obs-guard" file loc
                "allocation (string building or Bigarray create) on the \
                 tracing-disabled path of a hot module"
              :: !out
          | Pexp_fun _ | Pexp_function _ when in_any !disabled_ranges e.pexp_loc ->
            out :=
              viol "obs-guard" file e.pexp_loc
                "closure constructed on the tracing-disabled path of a hot module"
              :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ------------------------------------------------------------------ *)
(* Rule 4b: obs-guard — the metric-name registry                      *)
(* ------------------------------------------------------------------ *)

(* Library and CLI code must draw metric, span and instant names from
   [Obs.Names] (or, for the runtime's stages, from its one stage list)
   instead of inline string literals: the registry is what keeps the
   Prometheus exposition, the level sources, the trace and the
   DESIGN.md §8 taxonomy in sync, and a literal typo silently forks a
   metric or a span.  Bench and test zones keep their ad-hoc names.
   Reported under the obs-guard rule id (it is the same contract), so
   the existing suppression comments apply. *)

(* The position of the name among a head's unlabelled arguments:
   first for a registration, a span or an instant, second for a
   sampled span, whose first is its sampler. *)
let obs_register_heads path =
  match List.rev path with
  | ("counter" | "gauge" | "histogram") :: "Metrics" :: ("Obs" :: _ | []) -> Some 0
  | ("span" | "instant") :: "Obs" :: _ -> Some 0
  | "sampled_span" :: "Obs" :: _ -> Some 1
  | _ -> None

let obs_metric_names ~file str =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            let unlabelled =
              List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args
            in
            match
              Option.bind (obs_register_heads (norm_path txt)) (List.nth_opt unlabelled)
            with
            | Some { pexp_desc = Pexp_constant (Pconst_string _); pexp_loc; _ } ->
              out :=
                viol "obs-guard" file pexp_loc
                  "metric, span or instant named with an inline string literal; \
                   draw the name from Obs.Names so the registry, the Prometheus \
                   exposition, the trace and DESIGN.md §8 stay in sync"
                :: !out
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ------------------------------------------------------------------ *)
(* Rule 5: interface — the signature half                             *)
(* ------------------------------------------------------------------ *)

(* Modules exposing an abstract, underived [type t] must also expose a
   typed [equal] or [compare], so callers never have a reason to reach
   for polymorphic comparison.  A record, variant or alias shows its
   structure: callers compare the fields they mean.  The missing-.mli
   half of the rule lives in the engine's directory walk. *)

let has_deriving (td : type_declaration) =
  List.exists
    (fun (a : attribute) ->
      String.equal a.attr_name.txt "deriving"
      || String.equal a.attr_name.txt "deriving_inline")
    td.ptype_attributes

let is_abstract (td : type_declaration) =
  match (td.ptype_kind, td.ptype_manifest) with
  | Ptype_abstract, None -> true
  | _ -> false

let interface_signature ~file (sg : signature) =
  let out = ref [] in
  let rec check_scope items =
    let type_t = ref None in
    let has_eq = ref false in
    List.iter
      (fun item ->
        match item.psig_desc with
        | Psig_type (_, decls) ->
          List.iter
            (fun td ->
              if String.equal td.ptype_name.txt "t" && is_abstract td && not (has_deriving td)
              then
                type_t := Some td.ptype_name.loc)
            decls
        | Psig_value vd ->
          if
            String.equal vd.pval_name.txt "equal"
            || String.equal vd.pval_name.txt "compare"
          then has_eq := true
        | Psig_module { pmd_type = { pmty_desc = Pmty_signature sub; _ }; _ } ->
          check_scope sub
        | _ -> ())
      items;
    match !type_t with
    | Some loc when not !has_eq ->
      out :=
        viol "interface" file loc
          "module exposes an abstract `type t' without a typed `equal'/`compare'; \
           add one (or a reasoned suppression) so callers never need polymorphic \
           comparison"
        :: !out
    | _ -> ()
  in
  check_scope sg;
  !out
