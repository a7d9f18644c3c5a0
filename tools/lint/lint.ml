(* mycelium-lint engine: file discovery, zone mapping, parsing,
   suppression handling and reporting.  The rules themselves live in
   Lint_rules; this module decides which rules see which files and
   renders the results.

   Zero external dependencies: parsing comes from the compiler's own
   bundled [compiler-libs], JSON from [Obs.Json]. *)

module Json = Mycelium_obs.Obs.Json
open Parsetree

type zone = Lint_rules.zone =
  | Lib
  | Lib_hot
  | Lib_rng
  | Bin
  | Bench
  | Test

type violation = Lint_rules.violation = {
  rule : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

type report = {
  files : int;
  violations : violation list;  (** unsuppressed, sorted *)
  suppressed : violation list;
}

let rule_ids =
  [
    "poly-compare"; "determinism"; "rng-capture"; "obs-guard"; "interface";
    "parse-error";
    (* the interprocedural rules of mycelium-analyze (Analyze);
       suppression comments share one namespace with the syntactic
       rules so a site reads the same either way *)
    "dp-release"; "budget-order"; "epsilon-flow"; "pool-purity"; "unused-export";
  ]

(* ------------------------------------------------------------------ *)
(* Zones                                                              *)
(* ------------------------------------------------------------------ *)

let normalize_rel p =
  let p = if String.length p > 2 && String.sub p 0 2 = "./" then String.sub p 2 (String.length p - 2) else p in
  String.concat "/" (String.split_on_char '\\' p)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let zone_of_rel path =
  let p = normalize_rel path in
  if has_prefix ~prefix:"lib/util/rng.ml" p then Some Lib_rng
  else if has_prefix ~prefix:"lib/math/" p || has_prefix ~prefix:"lib/bgv/" p then
    Some Lib_hot
  else if has_prefix ~prefix:"lib/" p then Some Lib
  else if has_prefix ~prefix:"bin/" p then Some Bin
  else if has_prefix ~prefix:"bench/" p then Some Bench
  else if has_prefix ~prefix:"test/" p then Some Test
  else None

let lib_zone = function Lib | Lib_hot | Lib_rng -> true | Bin | Bench | Test -> false

(* ------------------------------------------------------------------ *)
(* Suppressions                                                       *)
(* ------------------------------------------------------------------ *)

(* Two spellings, one meaning: a reasoned opt-out visible at the site.
     (* lint: allow rule-id[, rule-id] — reason *)     covers its own
                                                       and the next line
     (* lint: allow-file rule-id — reason *)           covers the file
     [@lint.allow "rule-id"] / [@@lint.allow "..."]    covers the
                                                       annotated node *)

type suppressions = {
  file_level : string list;
  by_line : (int * string) list;  (* (line, rule) *)
  ranges : (string * int * int) list;  (* (rule, first_line, last_line) *)
}

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
  go 0

(* Rule-id tokens after the marker, stopping at the first token that
   is not a known rule id (the start of the required reason). *)
let parse_ids rest =
  let n = String.length rest in
  let ids = ref [] and i = ref 0 and stop = ref false in
  while (not !stop) && !i < n do
    (* skip separators *)
    while !i < n && (match rest.[!i] with ' ' | '\t' | ',' -> true | _ -> false) do incr i done;
    let start = !i in
    while !i < n && (match rest.[!i] with 'a' .. 'z' | '-' -> true | _ -> false) do incr i done;
    if !i = start then stop := true
    else begin
      let tok = String.sub rest start (!i - start) in
      if List.exists (String.equal tok) rule_ids then ids := tok :: !ids else stop := true
    end
  done;
  List.rev !ids

let scan_comment_suppressions src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  (* A suppression comment may wrap over several lines; it covers the
     line on which the comment closes, plus the one after. *)
  let closing_lnum i =
    let rec go j =
      if j >= n then i + 1
      else
        match find_sub lines.(j) "*)" with Some _ -> j + 1 | None -> go (j + 1)
    in
    go i
  in
  let file_level = ref [] and by_line = ref [] in
  Array.iteri
    (fun i line ->
      match find_sub line "lint: allow-file" with
      | Some off ->
        let rest = String.sub line (off + 16) (String.length line - off - 16) in
        file_level := parse_ids rest @ !file_level
      | None -> (
        match find_sub line "lint: allow" with
        | Some off ->
          let rest = String.sub line (off + 11) (String.length line - off - 11) in
          let lnum = closing_lnum i in
          List.iter (fun r -> by_line := (lnum, r) :: !by_line) (parse_ids rest)
        | None -> ()))
    lines;
  (!file_level, !by_line)

let attr_ids (a : Parsetree.attribute) =
  if not (String.equal a.attr_name.txt "lint.allow") then []
  else
    match a.attr_payload with
    | PStr
        [ { pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _ } ] ->
      parse_ids s
    | _ -> []

let collect_attr_ranges ~structure ~signature () =
  let ranges = ref [] in
  let note (loc : Location.t) attrs =
    List.iter
      (fun a ->
        List.iter
          (fun r -> ranges := (r, loc.loc_start.pos_lnum, loc.loc_end.pos_lnum) :: !ranges)
          (attr_ids a))
      attrs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          note e.pexp_loc e.pexp_attributes;
          Ast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_eval (_, attrs) -> note si.pstr_loc attrs
          | Pstr_value (_, vbs) ->
            List.iter (fun (vb : Parsetree.value_binding) -> note vb.pvb_loc vb.pvb_attributes) vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
      signature_item =
        (fun self si ->
          (match si.psig_desc with
          | Psig_value vd -> note si.psig_loc vd.pval_attributes
          | Psig_type (_, tds) ->
            List.iter
              (fun (td : Parsetree.type_declaration) -> note td.ptype_loc td.ptype_attributes)
              tds
          | _ -> ());
          Ast_iterator.default_iterator.signature_item self si);
      type_declaration =
        (fun self td ->
          note td.ptype_loc td.ptype_attributes;
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  Option.iter (it.structure it) structure;
  Option.iter (it.signature it) signature;
  !ranges

let is_suppressed sup (v : violation) =
  List.exists (String.equal v.rule) sup.file_level
  || List.exists (fun (l, r) -> (l = v.line || l = v.line - 1) && String.equal r v.rule) sup.by_line
  || List.exists
       (fun (r, lo, hi) -> String.equal r v.rule && v.line >= lo && v.line <= hi)
       sup.ranges

(* ------------------------------------------------------------------ *)
(* Per-file analysis                                                  *)
(* ------------------------------------------------------------------ *)

type kind = Ml | Mli

let kind_of_path p =
  if Filename.check_suffix p ".mli" then Some Mli
  else if Filename.check_suffix p ".ml" then Some Ml
  else None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ml_rules_for zone : (file:string -> Parsetree.structure -> violation list) list =
  let r1 = Lint_rules.poly_compare and r2 = Lint_rules.determinism in
  let r3 = Lint_rules.rng_capture and r4 = Lint_rules.obs_guard in
  let r5 = Lint_rules.obs_metric_names in
  match zone with
  | Lib -> [ r1; r2; r3; r5 ]
  | Lib_hot -> [ r1; r2; r3; r4; r5 ]
  | Lib_rng -> [ r1; r3; r5 ]
  | Bin -> [ r2; r3; r5 ]
  | Bench | Test -> [ r3 ]

(* Lint one source text.  Returns (violations, suppressed). *)
let lint_source ~zone ~file ~kind src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let file_level, by_line = scan_comment_suppressions src in
  let raw, ranges =
    match kind with
    | Ml -> (
      match Parse.implementation lexbuf with
      | str ->
        ( List.concat_map (fun rule -> rule ~file str) (ml_rules_for zone),
          collect_attr_ranges ~structure:(Some str) ~signature:None () )
      | exception exn ->
        ( [ { rule = "parse-error"; file; line = 1; col = 0; msg = Printexc.to_string exn } ],
          [] ))
    | Mli -> (
      match Parse.interface lexbuf with
      | sg ->
        ( (if lib_zone zone then Lint_rules.interface_signature ~file sg else []),
          collect_attr_ranges ~structure:None ~signature:(Some sg) () )
      | exception exn ->
        ( [ { rule = "parse-error"; file; line = 1; col = 0; msg = Printexc.to_string exn } ],
          [] ))
  in
  let sup = { file_level; by_line; ranges } in
  List.partition (fun v -> not (is_suppressed sup v)) raw

(* ------------------------------------------------------------------ *)
(* Discovery + the cross-file half of the interface rule              *)
(* ------------------------------------------------------------------ *)

let rec walk path acc =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        if String.length name = 0 || name.[0] = '.' then acc
        else if
          String.equal name "_build" || String.equal name "lint_fixtures"
          || String.equal name "node_modules"
        then acc
        else walk (Filename.concat path name) acc)
      acc entries
  else
    match kind_of_path path with
    (* dune materializes "(* Auto-generated by Dune *)" .mli stubs for
       executables inside _build sandboxes; nothing of ours to lint *)
    | Some _
      when (let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let n = in_channel_length ic in
                n = 0
                || n < 64
                   &&
                   let s = really_input_string ic n in
                   Option.is_some (find_sub s "Auto-generated by Dune"))) ->
      acc
    | Some k -> (normalize_rel path, k) :: acc
    | None -> acc

let compare_violations a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let run ?force_zone ~roots () =
  let files = List.fold_left (fun acc r -> walk r acc) [] roots in
  let files = List.sort (fun (a, _) (b, _) -> String.compare a b) files in
  let viols = ref [] and supp = ref [] in
  let seen = ref 0 in
  List.iter
    (fun (file, kind) ->
      match (match force_zone with Some z -> Some z | None -> zone_of_rel file) with
      | None -> ()
      | Some zone ->
        incr seen;
        let src = read_file file in
        let v, s = lint_source ~zone ~file ~kind src in
        (* missing-.mli half of the interface rule *)
        let v =
          if
            kind = Ml && lib_zone zone
            && not (Sys.file_exists (Filename.remove_extension file ^ ".mli"))
          then
            { rule = "interface";
              file;
              line = 1;
              col = 0;
              msg = "implementation has no .mli; every lib/ module declares its interface";
            }
            :: v
          else v
        in
        let file_level, _ = scan_comment_suppressions src in
        let v, extra_s =
          List.partition
            (fun x ->
              not (String.equal x.rule "interface" && List.exists (String.equal "interface") file_level))
            v
        in
        viols := v @ !viols;
        supp := extra_s @ s @ !supp)
    files;
  {
    files = !seen;
    violations = List.sort compare_violations !viols;
    suppressed = List.sort compare_violations !supp;
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let json_of_violation v =
  Json.Obj
    [
      ("rule", Json.Str v.rule);
      ("file", Json.Str v.file);
      ("line", Json.Int v.line);
      ("col", Json.Int v.col);
      ("message", Json.Str v.msg);
    ]

let json_of_report r =
  Json.Obj
    [
      ("tool", Json.Str "mycelium-lint");
      ("files", Json.Int r.files);
      ("violation_count", Json.Int (List.length r.violations));
      ("suppressed_count", Json.Int (List.length r.suppressed));
      ("violations", Json.List (List.map json_of_violation r.violations));
      ("suppressed", Json.List (List.map json_of_violation r.suppressed));
    ]

let console_of_report r =
  let b = Buffer.create 1024 in
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule v.msg))
    r.violations;
  Buffer.add_string b
    (Printf.sprintf "mycelium-lint: %d files, %d violations, %d suppressed\n" r.files
       (List.length r.violations) (List.length r.suppressed));
  Buffer.contents b
