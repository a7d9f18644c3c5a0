(* mycelium-analyze: the interprocedural half of the static-analysis
   stack (DESIGN.md §15).

   Input is the set of [.cmt] files dune already produces for every
   module; [Summarize] turns each into a symbolic per-function summary,
   and this module runs the whole-repo phases on top:

     1. name resolution — call sites recorded against open-bound
        sibling modules ("Committee.decrypt_batch" seen from inside
        lib/core) are re-anchored to canonical wrapped names
        ("Mycelium_core.Committee.decrypt_batch") now that the whole
        repo's function table is known;
     2. the effect fixpoint — per function, an affine concrete
        summary [Taint.conc] (base fact + per-parameter transfer
        coefficient), iterated to stability over the call graph;
     3. the context fixpoint — per function, the join of the argument
        facts observed at every call site, so a sink reached inside a
        helper fires with the taint its callers actually pass;
     4. the rule checks — dp-release, budget-order, epsilon-flow from
        the fixpoint results, pool-purity straight from the per-module
        findings, unused-export from the interface and reference
        sets;
     5. suppression filtering, shared comment syntax and machinery
        with the syntactic linter ([Lint.scan_comment_suppressions]).

   Two sets of directories feed a run.  The privacy rules and
   unused-export check the [roots]; [callers] are read only for the
   value paths they name, so a function that a bench, the benchmark,
   an example or a tool calls still counts as called.  Tests are not
   callers: an export that only a test names fires.

   Everything is compiler-libs + [Obs.Json]; no new dependencies. *)

module Json = Mycelium_obs.Obs.Json

type stats = {
  sa_modules : int;  (** cmt files analysed (after unit dedup) *)
  sa_functions : int;
  sa_exports : int;  (** values the interfaces under the roots export *)
  sa_conc_rounds : int;
  sa_ctx_rounds : int;
}

type result = {
  report : Lint.report;
  stats : stats;
  functions : string list;  (** canonical names of every summarized binding, sorted *)
  crypto_work : string list;
      (** the summarized bindings whose calls reach a crypto kernel, sorted *)
}

(* ------------------------------------------------------------------ *)
(* Discovery                                                          *)
(* ------------------------------------------------------------------ *)

(* [.objs] directories start with a dot, so the walk skips nothing;
   roots are expected to be build trees (e.g. [_build/default/lib]). *)
let rec find_files ~suffix path acc =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name -> find_files ~suffix (Filename.concat path name) acc)
      acc entries
  end
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let find_cmts path acc = find_files ~suffix:".cmt" path acc

(* The repository's scope, relative to the workspace root: the
   directories the rules check, and the program units read only for
   callers.  test/ is neither: a value only a test names is not part
   of the program. *)
let repo_roots = [ "lib"; "bin" ]
let repo_callers = [ "bench"; "benchmark"; "examples"; "tools" ]

(* ------------------------------------------------------------------ *)
(* The global function table                                          *)
(* ------------------------------------------------------------------ *)

type gf = {
  g_name : string;
  g_wrapper : string;  (* library wrapper prefix, e.g. "Mycelium_core" *)
  g_source : string;  (* repo-relative source path *)
  g_fs : Taint.fsummary;
  g_arity : int;
  mutable g_resolved : string array;  (* canonical callee per call index *)
  mutable g_conc : Taint.conc;
  mutable g_ctx : Taint.fact array;  (* observed per-parameter facts *)
}

let wrapper_of unit_name =
  match String.index_opt unit_name '.' with
  | Some i -> String.sub unit_name 0 i
  | None -> unit_name

(* A name the policy or repo knows under some classification — used to
   decide whether wrapper-prefixing improved a raw name. *)
let known funs name =
  Hashtbl.mem funs name
  || Option.is_some (Policy.classify name)
  || List.exists (String.equal name) Policy.env_readers
  || Policy.is_crypto name
  || Policy.is_pool_entry name
  || Policy.is_assume_charged name
  || Option.is_some (Policy.writer_of name)

(* Call sites in lib/foo/bar.ml reach sibling modules through the
   open'd wrapper alias, so the typedtree prints them unprefixed
   ("Committee.decrypt_batch").  Re-anchor against the wrapper. *)
let resolve funs ~wrapper name =
  if known funs name || String.equal wrapper "" then name
  else
    let p = wrapper ^ "." ^ name in
    if known funs p then p else name

(* ------------------------------------------------------------------ *)
(* Evaluation: sym -> absval under the current fixpoint state         *)
(* ------------------------------------------------------------------ *)

type ectx = {
  e_funs : (string, gf) Hashtbl.t;
  e_f : gf;
  e_call_memo : Taint.absval option array;
  mutable e_cells_busy : int list;
}

let fresh_ectx funs f =
  {
    e_funs = funs;
    e_f = f;
    e_call_memo = Array.make (Array.length f.g_fs.Taint.fs_calls) None;
    e_cells_busy = [];
  }

(* Match labelled argument values to a callee's parameter positions.
   Positional args fill successive positional params; ~l matches ~l or
   ?l.  Unmatched (over-application, mismatched labels) arguments are
   returned separately and joined into the result — conservative for
   levels. *)
let match_args (params : string list) (args : (string * Taint.absval) list) :
    Taint.absval option array * Taint.absval =
  let parr = Array.of_list params in
  let n = Array.length parr in
  let arr = Array.make n None in
  let extra = ref Taint.bot_av in
  let next_pos = ref 0 in
  let place i av =
    arr.(i) <- Some (match arr.(i) with None -> av | Some prev -> Taint.av_join prev av)
  in
  List.iter
    (fun (l, av) ->
      if String.equal l "" then begin
        let rec find i =
          if i >= n then None
          else if String.equal parr.(i) "" then Some i
          else find (i + 1)
        in
        match find !next_pos with
        | Some i ->
          place i av;
          next_pos := i + 1
        | None -> extra := Taint.av_join !extra av
      end
      else begin
        let base = String.sub l 1 (String.length l - 1) in
        let rec find i =
          if i >= n then None
          else if
            String.equal parr.(i) ("~" ^ base) || String.equal parr.(i) ("?" ^ base)
          then Some i
          else find (i + 1)
        in
        match find 0 with
        | Some i -> place i av
        | None -> extra := Taint.av_join !extra av
      end)
    args;
  (arr, !extra)

let source_origin ec fn (c : Taint.call) =
  {
    Taint.o_what = "source " ^ fn;
    o_file = ec.e_f.g_source;
    o_line = c.Taint.c_line;
  }

let env_origin ec fn (c : Taint.call) =
  {
    Taint.o_what = "environment read (" ^ fn ^ ")";
    o_file = ec.e_f.g_source;
    o_line = c.Taint.c_line;
  }

let rec eval ec (s : Taint.sym) : Taint.absval =
  match s with
  | Taint.Bot -> Taint.bot_av
  | Taint.Lit f -> Taint.av_of_fact f
  | Taint.Param i -> Taint.av_param i
  | Taint.Join ss -> Taint.av_joins (List.map (eval ec) ss)
  | Taint.Field (_, inner) -> eval ec inner
  | Taint.RecordS (fields, base) ->
    Taint.av_joins (eval ec base :: List.map (fun (_, s) -> eval ec s) fields)
  | Taint.Cell i ->
    if List.mem i ec.e_cells_busy then Taint.bot_av
    else begin
      ec.e_cells_busy <- i :: ec.e_cells_busy;
      let writes =
        if i < Array.length ec.e_f.g_fs.Taint.fs_cells then
          ec.e_f.g_fs.Taint.fs_cells.(i)
        else []
      in
      let r = Taint.av_joins (List.map (fun (_, s) -> eval ec s) writes) in
      ec.e_cells_busy <- List.tl ec.e_cells_busy;
      r
    end
  | Taint.Call i -> (
    match ec.e_call_memo.(i) with
    | Some v -> v
    | None ->
      (* break sym-graph cycles (recursive reads through cells) *)
      ec.e_call_memo.(i) <- Some Taint.bot_av;
      let v = eval_call ec i in
      ec.e_call_memo.(i) <- Some v;
      v)

and eval_call ec i =
  let c = ec.e_f.g_fs.Taint.fs_calls.(i) in
  let fn = ec.e_f.g_resolved.(i) in
  let arg_avs = List.map (fun (l, s) -> (l, eval ec s)) c.Taint.c_args in
  let all = Taint.av_joins (List.map snd arg_avs) in
  match Hashtbl.find_opt ec.e_funs fn with
  | Some callee ->
    let matched, extra = match_args callee.g_fs.Taint.fs_params arg_avs in
    Taint.av_join (Taint.conc_apply callee.g_conc matched) extra
  | None -> (
    if List.exists (String.equal fn) Policy.env_readers then
      Taint.av_of_fact
        { Taint.f_level = Taint.Public; f_srcs = []; f_eps = [ env_origin ec fn c ] }
    else
      match Policy.classify fn with
      | Some (Policy.Source l) ->
        Taint.av_of_fact
          { Taint.f_level = l; f_srcs = [ source_origin ec fn c ]; f_eps = [] }
      | Some (Policy.Sanitize tf) -> Taint.av_map_tf tf all
      | Some (Policy.Sink _) | Some (Policy.Charge _) | Some Policy.Neutral ->
        Taint.bot_av
      | Some Policy.Passthrough -> all
      | Some Policy.Opaque | None ->
        (* unknown exterior plumbing: conservative for levels, drops
           the const/env epsilon provenance (see taint.ml) *)
        Taint.av_drop_eps all)

(* ------------------------------------------------------------------ *)
(* Fixpoints                                                          *)
(* ------------------------------------------------------------------ *)

let conc_of_result arity (av : Taint.absval) : Taint.conc =
  {
    Taint.cn_base = av.Taint.v_base;
    cn_coeffs =
      Array.init arity (fun i -> List.assoc_opt i av.Taint.v_coeffs);
  }

let conc_fixpoint funs (order : gf list) =
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    changed := false;
    List.iter
      (fun f ->
        let ec = fresh_ectx funs f in
        let av = eval ec f.g_fs.Taint.fs_result in
        let cn = conc_of_result f.g_arity av in
        if not (Taint.conc_equal cn f.g_conc) then begin
          f.g_conc <- cn;
          changed := true
        end)
      order
  done;
  !rounds

(* Per call site, the data the context fixpoint and the rule checks
   both need: resolved callee, argument values (labelled, in
   application order) and their callee-parameter matching. *)
type site = {
  s_fn : string;
  s_line : int;
  s_col : int;
  s_args : (string * Taint.absval) list;
  s_matched : Taint.absval option array;  (* vs callee params if known *)
}

let sites_of funs f =
  let ec = fresh_ectx funs f in
  Array.to_list
    (Array.mapi
       (fun i (c : Taint.call) ->
         let fn = f.g_resolved.(i) in
         let args = List.map (fun (l, s) -> (l, eval ec s)) c.Taint.c_args in
         let matched =
           match Hashtbl.find_opt funs fn with
           | Some callee -> fst (match_args callee.g_fs.Taint.fs_params args)
           | None -> [||]
         in
         { s_fn = fn; s_line = c.Taint.c_line; s_col = c.Taint.c_col; s_args = args; s_matched = matched })
       f.g_fs.Taint.fs_calls)

let ctx_fixpoint funs (order : (gf * site list) list) =
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    changed := false;
    List.iter
      (fun (f, sites) ->
        List.iter
          (fun s ->
            match Hashtbl.find_opt funs s.s_fn with
            | None -> ()
            | Some callee ->
              Array.iteri
                (fun i avo ->
                  match avo with
                  | None -> ()
                  | Some av ->
                    if i < Array.length callee.g_ctx then begin
                      let incoming = Taint.fact_of_av f.g_ctx av in
                      let joined = Taint.fact_join callee.g_ctx.(i) incoming in
                      if not (Taint.fact_equal joined callee.g_ctx.(i)) then begin
                        callee.g_ctx.(i) <- joined;
                        changed := true
                      end
                    end)
                s.s_matched)
          sites)
      order
  done;
  !rounds

(* ------------------------------------------------------------------ *)
(* Rule checks                                                        *)
(* ------------------------------------------------------------------ *)

let origins_blurb srcs =
  match srcs with
  | [] -> ""
  | l ->
    let shown = List.filteri (fun i _ -> i < 3) l in
    let rest = List.length l - List.length shown in
    " (from "
    ^ String.concat ", "
        (List.map
           (fun (o : Taint.origin) ->
             Printf.sprintf "%s at %s:%d" o.Taint.o_what o.Taint.o_file o.Taint.o_line)
           shown)
    ^ (if rest > 0 then Printf.sprintf " and %d more" rest else "")
    ^ ")"

(* dp-release: a value still Secret or Clipped reaching a sink. *)
let check_dp_release (f : gf) sites acc =
  List.fold_left
    (fun acc s ->
      match Policy.classify s.s_fn with
      | Some (Policy.Sink what) ->
        List.fold_left
          (fun acc (_, av) ->
            let fact = Taint.fact_of_av f.g_ctx av in
            match fact.Taint.f_level with
            | Taint.Secret | Taint.Clipped ->
              {
                Lint_rules.rule = "dp-release";
                file = f.g_source;
                line = s.s_line;
                col = s.s_col;
                msg =
                  Printf.sprintf
                    "%s value reaches %s (%s) without the clip+noise release \
                     path%s"
                    (Taint.level_name fact.Taint.f_level)
                    what s.s_fn
                    (origins_blurb fact.Taint.f_srcs);
              }
              :: acc
            | Taint.Public | Taint.Noised -> acc)
          acc s.s_args
      | _ -> acc)
    acc sites

(* epsilon-flow: a charge-site epsilon whose provenance includes a
   float constant or an environment read.  Attributed at the origin so
   each is individually suppressible. *)
let check_epsilon_flow (f : gf) sites acc =
  List.fold_left
    (fun acc s ->
      match Policy.classify s.s_fn with
      | Some (Policy.Charge idx) -> (
        let positional = List.filter (fun (l, _) -> String.equal l "") s.s_args in
        match List.nth_opt positional idx with
        | None -> acc
        | Some (_, av) ->
          let fact = Taint.fact_of_av f.g_ctx av in
          List.fold_left
            (fun acc (o : Taint.origin) ->
              {
                Lint_rules.rule = "epsilon-flow";
                file = o.Taint.o_file;
                line = o.Taint.o_line;
                col = 0;
                msg =
                  Printf.sprintf
                    "%s flows into the epsilon charged by %s; epsilons must \
                     originate from the parsed query AST"
                    o.Taint.o_what s.s_fn;
              }
              :: acc)
            acc fact.Taint.f_eps)
      | _ -> acc)
    acc sites

(* budget-order: on serve entry paths, no call transitively reaching
   crypto/gather work (a call into a [Policy.crypto_kernels] module)
   may precede the first call transitively reaching an accountant
   charge.  Sites reaching both count as charging; reachability does
   not traverse [Policy.assume_charged]. *)
let reach_sets (table : (string * site list) list) =
  let is_charge n =
    match Policy.classify n with Some (Policy.Charge _) -> true | _ -> false
  in
  let reaches pred =
    let set = Hashtbl.create 64 in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (name, sites) ->
          if not (Hashtbl.mem set name) then
            if
              List.exists
                (fun s ->
                  (not (Policy.is_assume_charged s.s_fn))
                  && (pred s.s_fn || Hashtbl.mem set s.s_fn))
                sites
            then begin
              Hashtbl.replace set name ();
              changed := true
            end)
        table
    done;
    set
  in
  (reaches is_charge, reaches Policy.is_crypto, is_charge)

let check_budget_order funs (charge_set, crypto_set, is_charge) by_name acc =
  let site_reaches set pred s =
    (not (Policy.is_assume_charged s.s_fn)) && (pred s.s_fn || Hashtbl.mem set s.s_fn)
  in
  List.fold_left
    (fun acc (name, sites) ->
      if not (Policy.is_serve_entry name) then acc
      else
        let f = Hashtbl.find funs name in
        let sites =
          List.sort
            (fun a b ->
              let c = Int.compare a.s_line b.s_line in
              if c <> 0 then c else Int.compare a.s_col b.s_col)
            sites
        in
        let charging = site_reaches charge_set is_charge in
        let crypto s = site_reaches crypto_set Policy.is_crypto s in
        let first_charge =
          List.find_map (fun s -> if charging s then Some (s.s_line, s.s_col) else None) sites
        in
        List.fold_left
          (fun acc s ->
            let before =
              match first_charge with
              | None -> true
              | Some (l, c) -> s.s_line < l || (s.s_line = l && s.s_col < c)
            in
            if before && crypto s && not (charging s) then
              {
                Lint_rules.rule = "budget-order";
                file = f.g_source;
                line = s.s_line;
                col = s.s_col;
                msg =
                  Printf.sprintf
                    "crypto/gather work (%s) on serve path %s is reachable \
                     before the accountant charge; admission must charge first"
                    s.s_fn name;
              }
              :: acc
            else acc)
          acc sites)
    acc by_name

(* unused-export: a [val] of an interface under the roots that no
   other program unit names.  A reference resolves as written or
   under the referencing unit's library wrapper (sibling modules are
   named unprefixed); a module used whole names every value under it. *)
let check_unused_exports (intfs : Taint.isummary list) (users : Taint.msummary list) acc =
  let exports = Hashtbl.create 1024 in
  List.iter
    (fun (i : Taint.isummary) ->
      List.iter (fun (name, _) -> Hashtbl.replace exports name i.Taint.i_unit) i.Taint.i_vals)
    intfs;
  let named = Hashtbl.create 1024 in
  let note (u : Taint.msummary) name =
    match Hashtbl.find_opt exports name with
    | Some owner when not (String.equal owner u.Taint.m_unit) -> Hashtbl.replace named name ()
    | _ -> ()
  in
  List.iter
    (fun (u : Taint.msummary) ->
      let wrapper = wrapper_of u.Taint.m_unit in
      List.iter
        (fun r ->
          let candidates = [ r; wrapper ^ "." ^ r ] in
          if String.ends_with ~suffix:"." r then
            Hashtbl.iter
              (fun name _ ->
                if List.exists (fun prefix -> String.starts_with ~prefix name) candidates
                then note u name)
              exports
          else List.iter (note u) candidates)
        u.Taint.m_refs)
    users;
  List.fold_left
    (fun acc (i : Taint.isummary) ->
      List.fold_left
        (fun acc (name, line) ->
          if Hashtbl.mem named name then acc
          else
            {
              Lint_rules.rule = "unused-export";
              file = i.Taint.i_source;
              line;
              col = 0;
              msg =
                Printf.sprintf
                  "%s is exported but no program unit names it; take it out \
                   of the interface (warning 32 then flags it if nothing inside \
                   uses it either)"
                  name;
            }
            :: acc)
        acc i.Taint.i_vals)
    acc intfs

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run ?(source_root = ".") ?(callers = []) ~roots () : result =
  let files suffix dirs =
    List.concat_map (fun r -> find_files ~suffix r []) dirs |> List.sort_uniq String.compare
  in
  (* a file the typedtree reader refuses is skipped *)
  let read f path = try f path with _ -> None in
  let summaries = ref [] and users = ref [] and intfs = ref [] in
  let seen_units = Hashtbl.create 64 in
  List.iter
    (fun path ->
      match read (Summarize.of_cmt ~summarize:true) path with
      | Some ms ->
        users := ms :: !users;
        if not (Hashtbl.mem seen_units ms.Taint.m_unit) then begin
          Hashtbl.replace seen_units ms.Taint.m_unit ();
          summaries := ms :: !summaries
        end
      | None -> ())
    (files ".cmt" roots);
  (* every copy of a caller counts: its references are a union *)
  List.iter
    (fun path ->
      Option.iter (fun ms -> users := ms :: !users) (read (Summarize.of_cmt ~summarize:false) path))
    (files ".cmt" callers);
  List.iter
    (fun path -> Option.iter (fun i -> intfs := i :: !intfs) (read Summarize.of_cmti path))
    (files ".cmti" roots);
  let summaries = List.rev !summaries and intfs = List.rev !intfs in
  (* global function table *)
  let funs : (string, gf) Hashtbl.t = Hashtbl.create 512 in
  let order = ref [] in
  List.iter
    (fun (ms : Taint.msummary) ->
      let wrapper = wrapper_of ms.Taint.m_unit in
      List.iter
        (fun (fs : Taint.fsummary) ->
          let arity = List.length fs.Taint.fs_params in
          let f =
            {
              g_name = fs.Taint.fs_name;
              g_wrapper = wrapper;
              g_source = ms.Taint.m_source;
              g_fs = fs;
              g_arity = arity;
              g_resolved = [||];
              g_conc = Taint.conc_bot arity;
              g_ctx = Array.make arity Taint.bot_fact;
            }
          in
          Hashtbl.replace funs fs.Taint.fs_name f;
          order := f :: !order)
        ms.Taint.m_funs)
    summaries;
  let order = List.rev !order in
  (* resolution pass: needs the complete table *)
  List.iter
    (fun f ->
      f.g_resolved <-
        Array.map
          (fun (c : Taint.call) -> resolve funs ~wrapper:f.g_wrapper c.Taint.c_fn)
          f.g_fs.Taint.fs_calls)
    order;
  (* fixpoints *)
  let conc_rounds = conc_fixpoint funs order in
  let with_sites = List.map (fun f -> (f, sites_of funs f)) order in
  let ctx_rounds = ctx_fixpoint funs with_sites in
  (* checks *)
  let by_name = List.map (fun (f, s) -> (f.g_name, s)) with_sites in
  let ((_, crypto_set, _) as reach) = reach_sets by_name in
  let raw = ref [] in
  List.iter
    (fun (f, sites) ->
      raw := check_dp_release f sites !raw;
      raw := check_epsilon_flow f sites !raw)
    with_sites;
  raw := check_budget_order funs reach by_name !raw;
  List.iter
    (fun (ms : Taint.msummary) ->
      List.iter
        (fun (line, col, msg) ->
          raw :=
            { Lint_rules.rule = "pool-purity"; file = ms.Taint.m_source; line; col; msg }
            :: !raw)
        ms.Taint.m_pool)
    summaries;
  raw := check_unused_exports intfs !users !raw;
  (* one violation per (rule, file, line, col, msg) *)
  let raw =
    List.sort_uniq
      (fun (a : Lint.violation) b ->
        let c = Lint.compare_violations a b in
        if c <> 0 then c else String.compare a.msg b.msg)
      !raw
  in
  (* suppression filtering, shared comment syntax with mycelium-lint *)
  let sup_cache : (string, Lint.suppressions) Hashtbl.t = Hashtbl.create 32 in
  let suppressions_for file =
    match Hashtbl.find_opt sup_cache file with
    | Some s -> s
    | None ->
      let s =
        match Lint.read_file (Filename.concat source_root file) with
        | src ->
          let file_level, by_line = Lint.scan_comment_suppressions src in
          { Lint.file_level; by_line; ranges = [] }
        | exception _ -> { Lint.file_level = []; by_line = []; ranges = [] }
      in
      Hashtbl.replace sup_cache file s;
      s
  in
  let violations, suppressed =
    List.partition (fun v -> not (Lint.is_suppressed (suppressions_for v.Lint.file) v)) raw
  in
  {
    report =
      {
        Lint.files = List.length summaries;
        violations = List.sort Lint.compare_violations violations;
        suppressed = List.sort Lint.compare_violations suppressed;
      };
    stats =
      {
        sa_modules = List.length summaries;
        sa_functions = List.length order;
        sa_exports = List.fold_left (fun n i -> n + List.length i.Taint.i_vals) 0 intfs;
        sa_conc_rounds = conc_rounds;
        sa_ctx_rounds = ctx_rounds;
      };
    functions = List.sort String.compare (List.map (fun f -> f.g_name) order);
    crypto_work =
      List.sort String.compare
        (List.filter_map
           (fun f -> if Hashtbl.mem crypto_set f.g_name then Some f.g_name else None)
           order);
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let rule_table (r : Lint.report) =
  let rules =
    [ "dp-release"; "budget-order"; "epsilon-flow"; "pool-purity"; "unused-export" ]
  in
  List.map
    (fun rule ->
      let count l = List.length (List.filter (fun (v : Lint.violation) -> String.equal v.rule rule) l) in
      (rule, count r.Lint.violations, count r.Lint.suppressed))
    rules

let json_of_result (res : result) =
  let r = res.report and s = res.stats in
  Json.Obj
    [
      ("tool", Json.Str "mycelium-analyze");
      ("modules", Json.Int s.sa_modules);
      ("functions", Json.Int s.sa_functions);
      ("exports", Json.Int s.sa_exports);
      ( "fixpoint",
        Json.Obj
          [
            ("effect_rounds", Json.Int s.sa_conc_rounds);
            ("context_rounds", Json.Int s.sa_ctx_rounds);
          ] );
      ("violation_count", Json.Int (List.length r.Lint.violations));
      ("suppressed_count", Json.Int (List.length r.Lint.suppressed));
      ("violations", Json.List (List.map Lint.json_of_violation r.Lint.violations));
      ("suppressed", Json.List (List.map Lint.json_of_violation r.Lint.suppressed));
      ( "rules",
        Json.Obj
          (List.map
             (fun (rule, v, sup) ->
               (rule, Json.Obj [ ("violations", Json.Int v); ("suppressed", Json.Int sup) ]))
             (rule_table r)) );
    ]

let console_of_result (res : result) =
  let r = res.report in
  let b = Buffer.create 1024 in
  List.iter
    (fun (v : Lint.violation) ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule v.msg))
    r.Lint.violations;
  Buffer.add_string b
    (Printf.sprintf
       "mycelium-analyze: %d modules, %d functions, %d exports, %d violations, %d suppressed\n"
       res.stats.sa_modules res.stats.sa_functions res.stats.sa_exports
       (List.length r.Lint.violations)
       (List.length r.Lint.suppressed));
  Buffer.contents b

let stats_of_result (res : result) =
  let s = res.stats in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "modules summarized:  %d\n" s.sa_modules);
  Buffer.add_string b
    (Printf.sprintf "functions:           %d\n" s.sa_functions);
  Buffer.add_string b
    (Printf.sprintf "fixpoint rounds:     %d effect, %d context\n" s.sa_conc_rounds
       s.sa_ctx_rounds);
  Buffer.add_string b "rule                 violations  suppressed\n";
  List.iter
    (fun (rule, v, sup) ->
      Buffer.add_string b (Printf.sprintf "%-20s %10d  %10d\n" rule v sup))
    (rule_table res.report);
  Buffer.contents b
