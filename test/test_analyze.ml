(* mycelium-analyze suite (DESIGN.md §15): every interprocedural rule
   is proven live against a compiled firing fixture — exact rule ids
   and line numbers asserted out of the report — and proven
   silenceable against a suppressed twin, so a regression in the
   dataflow fixpoints, the policy, or the shared suppression machinery
   turns the tree red.

   The fixtures are a real bytecode library under
   lint_fixtures/analyze/ (the analyzer consumes .cmt files, so unlike
   the parse-only syntactic fixtures they must compile); the dune rule
   deps on its .cma so the cmts exist before the suite runs.  The
   suite runs from _build/default/test, so the build tree sits at
   lint_fixtures/analyze/.analyze_fixtures.objs/byte and the copied
   sources (for suppression comments) resolve from source root "..".

   The unused-export cells check how a reference resolves, on
   hand-built summaries and on the refs_aliases fixture; the run cells
   check what one run reads (callers for references only, a unit once,
   the tree as it is now); the cli cells run analyze_main for its exit
   status. *)

module A = Mycelium_lint.Analyze
module L = Mycelium_lint.Lint
module P = Mycelium_lint.Policy
module S = Mycelium_lint.Summarize
module T = Mycelium_lint.Taint
module Json = Mycelium_obs.Obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sites = Alcotest.(list (pair string int))
(* (rule, line) pairs in report order *)

let site_list vs = List.map (fun (v : L.violation) -> (v.rule, v.line)) vs
let only file vs = List.filter (fun (v : L.violation) -> Filename.basename v.file = file) vs

let fixture_root = "lint_fixtures/analyze/.analyze_fixtures.objs/byte"
let run () = A.run ~source_root:".." ~roots:[ fixture_root ] ()

(* One run shared by the rule cells: the analyzer is deterministic and
   the fixtures are fixed, so recomputing per cell would only slow the
   suite down. *)
let result = lazy (run ())

(* ------------------------------------------------------------------ *)
(* Rules fire, with exact positions                                    *)
(* ------------------------------------------------------------------ *)

let test_dp_release_fires () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "secret reaches the sink at the print"
    [ ("dp-release", 14) ]
    (site_list (only "fire_dp_release.ml" r.L.violations));
  (* the clip+noise twin in the same file stays silent: exactly one
     violation in the file proves the sanitizer modelling *)
  checki "released() is silent" 1
    (List.length (only "fire_dp_release.ml" (r.L.violations @ r.L.suppressed)))

let test_budget_order_fires () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "a crypto kernel before the charge, at the hash"
    [ ("budget-order", 12) ]
    (site_list (only "fire_budget_order.ml" r.L.violations));
  checki "serve_entry_charged is silent" 1
    (List.length (only "fire_budget_order.ml" (r.L.violations @ r.L.suppressed)))

let test_epsilon_flow_fires () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "attributed at the float literal's line"
    [ ("epsilon-flow", 10) ]
    (site_list (only "fire_epsilon_flow.ml" r.L.violations));
  checki "charge_parsed is silent" 1
    (List.length (only "fire_epsilon_flow.ml" (r.L.violations @ r.L.suppressed)))

let test_pool_purity_fires () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "at the racing write inside the closure"
    [ ("pool-purity", 15) ]
    (site_list (only "fire_pool_purity.ml" r.L.violations));
  (* disjoint-by-index and sequential-merge twins stay silent *)
  checki "disjoint/sum are silent" 1
    (List.length (only "fire_pool_purity.ml" (r.L.violations @ r.L.suppressed)))

let test_unused_export_fires () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "at the uncalled val in the interface"
    [ ("unused-export", 7) ]
    (site_list (only "fire_unused_export.mli" r.L.violations));
  (* [called] has a caller in a sibling fixture and stays silent *)
  checki "called is silent" 1
    (List.length (only "fire_unused_export.mli" (r.L.violations @ r.L.suppressed)))

(* ------------------------------------------------------------------ *)
(* Suppression machinery covers analyzer rules                         *)
(* ------------------------------------------------------------------ *)

let test_suppressed_twins () =
  let r = (Lazy.force result).A.report in
  List.iter
    (fun (file, rule, line) ->
      Alcotest.check sites
        (rule ^ " suppressed at its exact site")
        [ (rule, line) ]
        (site_list (only file r.L.suppressed));
      checki (rule ^ " has no unsuppressed leftovers") 0
        (List.length (only file r.L.violations)))
    [
      ("suppressed_dp_release.ml", "dp-release", 13);
      ("suppressed_budget_order.ml", "budget-order", 10);
      ("suppressed_epsilon_flow.ml", "epsilon-flow", 7);
      ("suppressed_pool_purity.ml", "pool-purity", 12);
    ]

let test_unused_export_suppressed () =
  let r = (Lazy.force result).A.report in
  Alcotest.check sites "unused-export suppressed at its exact site"
    [ ("unused-export", 6) ]
    (site_list (only "suppressed_unused_export.mli" r.L.suppressed));
  checki "unused-export has no unsuppressed leftovers" 0
    (List.length (only "suppressed_unused_export.mli" r.L.violations))

let test_rule_table () =
  let r = (Lazy.force result).A.report in
  List.iter
    (fun (rule, fired, suppressed) ->
      checki (rule ^ " fired") 1 fired;
      checki (rule ^ " suppressed") 1 suppressed)
    (A.rule_table r)

(* ------------------------------------------------------------------ *)
(* JSON report shape                                                   *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Json.Obj kvs -> List.assoc name kvs
  | _ -> Alcotest.fail "expected a JSON object"

let test_json_report () =
  let res = Lazy.force result in
  let j = A.json_of_result res in
  checkb "tool tag" true (field "tool" j = Json.Str "mycelium-analyze");
  checkb "violation count" true
    (field "violation_count" j = Json.Int (List.length res.A.report.L.violations));
  (match field "rules" j with
  | Json.Obj rules ->
    checki "all five rules tabulated" 5 (List.length rules);
    List.iter
      (fun (_, cell) ->
        checkb "one violation per rule" true (field "violations" cell = Json.Int 1))
      rules
  | _ -> Alcotest.fail "rules is an object");
  (* the JSON survives its own printer *)
  checkb "serializes" true (String.length (Json.to_string j) > 0)

(* ------------------------------------------------------------------ *)
(* Private copies of fixture build files                               *)
(* ------------------------------------------------------------------ *)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* A private directory holding copies of the named fixture build files,
   so a cell can pick which units a run sees without perturbing dune's
   build tree. *)
let with_copies names f =
  let dir = Filename.temp_file "mycelium_analyze" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun n ->
          write_bytes (Filename.concat dir n) (read_bytes (Filename.concat fixture_root n)))
        names;
      f dir)

(* ------------------------------------------------------------------ *)
(* unused-export: what counts as a reference                           *)
(* ------------------------------------------------------------------ *)

(* Hand-built summaries isolate the rule's resolution from the
   typedtree walk: an interface exporting [vals] under [unit], and a
   unit naming [refs]. *)
let intf unit vals =
  { T.i_unit = unit; i_source = unit ^ ".mli"; i_vals = List.mapi (fun i v -> (unit ^ "." ^ v, i + 1)) vals }

let user unit refs = { T.m_unit = unit; m_source = unit ^ ".ml"; m_funs = []; m_pool = []; m_refs = refs }

(* the flagged values, by name, sorted *)
let flagged intfs users =
  A.check_unused_exports intfs users []
  |> List.map (fun (v : L.violation) -> List.hd (String.split_on_char ' ' v.msg))
  |> List.sort String.compare

let names = Alcotest.(list string)

let test_own_unit_no_caller () =
  Alcotest.check names "a module naming its own export is no caller" [ "Mycelium_x.M.f" ]
    (flagged
       [ intf "Mycelium_x.M" [ "f"; "g" ] ]
       [ user "Mycelium_x.M" [ "Mycelium_x.M.f" ]; user "Mycelium_x.N" [ "Mycelium_x.M.g" ] ])

let test_sibling_under_wrapper () =
  (* a module of the same library names its sibling unprefixed; the
     same text from another library names something else *)
  Alcotest.check names "resolved under the referencing unit's wrapper"
    [ "Mycelium_core.Committee.members" ]
    (flagged
       [ intf "Mycelium_core.Committee" [ "threshold"; "members" ] ]
       [
         user "Mycelium_core.Runtime" [ "Committee.threshold" ];
         user "Other_lib.Main" [ "Committee.members" ];
       ])

let test_module_used_whole () =
  Alcotest.check names "a whole-module use names exactly the values under it"
    [ "Mycelium_obs.Obs.Jsonl.read"; "Mycelium_obs.Obs.span" ]
    (flagged
       [ intf "Mycelium_obs.Obs" [ "span"; "Json.to_string"; "Json.parse"; "Jsonl.read" ] ]
       [ user "Test_obs" [ "Mycelium_obs.Obs.Json." ] ])

let test_every_copy_counts () =
  (* one unit read twice (two build contexts) with different reference
     sets: the union counts *)
  Alcotest.check names "references of every copy are a union" []
    (flagged
       [ intf "Mycelium_bgv.Bgv" [ "encrypt"; "noise_budget" ] ]
       [
         user "Test_bgv" [ "Mycelium_bgv.Bgv.encrypt" ];
         user "Test_bgv" [ "Mycelium_bgv.Bgv.noise_budget" ];
       ])

let test_wrapper_names () =
  let unit n = Path.Pident (Ident.create_persistent n) in
  let canon p = S.canon_in S.IdentMap.empty p in
  let checks = Alcotest.(check string) in
  checks "mangled unit" "Mycelium_core.Committee.threshold"
    (canon (Path.Pdot (unit "Mycelium_core__Committee", "threshold")));
  checks "through the library's alias module" "Mycelium_core.Committee.threshold"
    (canon (Path.Pdot (Path.Pdot (unit "Mycelium_core__", "Committee"), "threshold")));
  checks "executable prefix dropped" "Test_bgv.run" (canon (Path.Pdot (unit "Dune__exe__Test_bgv", "run")))

let test_aliases_resolve () =
  match S.of_cmt ~summarize:false (Filename.concat fixture_root "analyze_fixtures__Refs_aliases.cmt") with
  | None -> Alcotest.fail "refs_aliases has no implementation cmt"
  | Some ms ->
    Alcotest.check names "both aliases reach one canonical path; List is left out"
      [ "Analyze_fixtures.Fire_unused_export.called" ]
      ms.T.m_refs

(* Nested signatures export their values under the nested path, at the
   [val]'s own line: read from the real Obs interface, whose [Json]
   module the whole repository prints with. *)
let test_nested_signature_exports () =
  match S.of_cmti "../lib/obs/.mycelium_obs.objs/byte/mycelium_obs__Obs.cmti" with
  | None -> Alcotest.fail "no Obs interface in the lib build tree"
  | Some i -> (
    Alcotest.(check string) "unit" "Mycelium_obs.Obs" i.T.i_unit;
    match List.assoc_opt "Mycelium_obs.Obs.Json.to_string" i.T.i_vals with
    | None -> Alcotest.fail "Obs.Json.to_string is not among the exports"
    | Some line ->
      let text = List.nth (String.split_on_char '\n' (read_bytes ("../" ^ i.T.i_source))) (line - 1) in
      checkb (Printf.sprintf "line %d declares it: %S" line text) true
        (String.starts_with ~prefix:"val to_string" (String.trim text)))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let test_exports_counted () =
  let res = Lazy.force result in
  checki "three vals across the two fixture interfaces" 3 res.A.stats.A.sa_exports;
  checkb "in the JSON report" true (field "exports" (A.json_of_result res) = Json.Int 3);
  checkb "in the console summary" true (contains (A.console_of_result res) ", 3 exports,")

let fire_export = [ "analyze_fixtures__Fire_unused_export.cmt"; "analyze_fixtures__Fire_unused_export.cmti" ]
let caller_of_called = [ "analyze_fixtures__Suppressed_unused_export.cmt" ]

let unused_sites (res : A.result) =
  site_list
    (List.filter (fun (v : L.violation) -> String.equal v.rule "unused-export") res.A.report.L.violations)

let test_callers_count () =
  with_copies fire_export (fun roots ->
      with_copies caller_of_called (fun callers ->
          Alcotest.check sites "no caller read: both vals fire"
            [ ("unused-export", 5); ("unused-export", 7) ]
            (unused_sites (A.run ~source_root:".." ~roots:[ roots ] ()));
          Alcotest.check sites "a caller directory names [called]"
            [ ("unused-export", 7) ]
            (unused_sites (A.run ~source_root:".." ~callers:[ callers ] ~roots:[ roots ] ()))))

(* ------------------------------------------------------------------ *)
(* What one run reads                                                  *)
(* ------------------------------------------------------------------ *)

let pool_purity = [ "analyze_fixtures__Fire_pool_purity.cmt" ]

let functions_of unit (res : A.result) =
  List.filter (String.starts_with ~prefix:(unit ^ ".")) res.A.functions

(* A caller directory is read for its references alone: none of its
   functions joins the table and no privacy rule runs over them, while
   the same file under a root is summarized and checked. *)
let test_caller_is_no_root () =
  with_copies fire_export (fun roots ->
      with_copies pool_purity (fun callers ->
          let as_caller = A.run ~source_root:".." ~callers:[ callers ] ~roots:[ roots ] () in
          checki "only the root's module is summarized" 1 as_caller.A.stats.A.sa_modules;
          Alcotest.check names "no caller function in the table" []
            (functions_of "Analyze_fixtures.Fire_pool_purity" as_caller);
          Alcotest.check sites "no rule fires in a caller" []
            (site_list (only "fire_pool_purity.ml" as_caller.A.report.L.violations));
          let as_root = A.run ~source_root:".." ~roots:[ callers ] () in
          checkb "as a root its functions are in the table" true
            (functions_of "Analyze_fixtures.Fire_pool_purity" as_root <> []);
          Alcotest.check sites "and pool-purity fires" [ ("pool-purity", 15) ]
            (site_list (only "fire_pool_purity.ml" as_root.A.report.L.violations))))

(* One unit found under two roots (two build contexts) is summarized
   once: its functions are not doubled. *)
let test_unit_read_once () =
  with_copies pool_purity (fun a ->
      with_copies pool_purity (fun b ->
          let one = A.run ~source_root:".." ~roots:[ a ] () in
          let two = A.run ~source_root:".." ~roots:[ a; b ] () in
          checki "one module from two copies" 1 two.A.stats.A.sa_modules;
          Alcotest.check names "the same functions" one.A.functions two.A.functions;
          Alcotest.check sites "the same violations" (site_list one.A.report.L.violations)
            (site_list two.A.report.L.violations)))

(* A run keeps nothing for the next: a unit taken out of the tree takes
   its violation with it, and put back, brings it back. *)
let test_rerun_reads_afresh () =
  let build_files =
    Sys.readdir fixture_root |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".cmt" || Filename.check_suffix n ".cmti")
  in
  with_copies build_files (fun dir ->
      let run () = (A.run ~source_root:".." ~roots:[ dir ] ()).A.report.L.violations in
      let all = (Lazy.force result).A.report.L.violations in
      Alcotest.check sites "the copies report what the build tree does" (site_list all)
        (site_list (run ()));
      let victim = Filename.concat dir "analyze_fixtures__Fire_pool_purity.cmt" in
      let saved = read_bytes victim in
      Sys.remove victim;
      let others = List.filter (fun (v : L.violation) -> Filename.basename v.file <> "fire_pool_purity.ml") all in
      checki "the fixture fires once" 1 (List.length all - List.length others);
      Alcotest.check sites "without the unit, its violation is gone" (site_list others)
        (site_list (run ()));
      write_bytes victim saved;
      Alcotest.check sites "put back, it fires again" (site_list all) (site_list (run ())))

(* ------------------------------------------------------------------ *)
(* The CLI's exit status                                               *)
(* ------------------------------------------------------------------ *)

let analyze_main args =
  Sys.command
    (Filename.quote_command "../tools/lint/analyze_main.exe" ~stdout:Filename.null
       ~stderr:Filename.null args)

let test_cli_empty_root () =
  with_copies [] (fun dir -> checki "a root holding no .cmt exits 2" 2 (analyze_main [ dir ]))

let test_cli_violations () =
  checki "unsuppressed violations exit 1" 1 (analyze_main [ "--source-root"; ".."; fixture_root ])

let test_cli_suppressed_only () =
  let suppressed =
    Sys.readdir fixture_root |> Array.to_list
    |> List.filter (fun n ->
           String.starts_with ~prefix:"analyze_fixtures__Suppressed_" n
           && (Filename.check_suffix n ".cmt" || Filename.check_suffix n ".cmti"))
  in
  checki "five twins: five cmts, one cmti" 6 (List.length suppressed);
  with_copies suppressed (fun dir ->
      checki "suppressed violations alone exit 0" 0 (analyze_main [ "--source-root"; ".."; dir ]))

(* ------------------------------------------------------------------ *)
(* The policy names functions that exist                               *)
(* ------------------------------------------------------------------ *)

(* [Policy] names repository functions in strings.  A deleted or
   renamed source or sink would drop out of dp-release without a
   sound, so every exact name must be a function the analyzer finds in
   the real lib/ build tree, and every prefix must match one. *)
let lib_result = lazy (A.run ~roots:[ "../lib" ] ())

let test_policy_names_resolve () =
  let res = Lazy.force lib_result in
  checkb "the lib build tree was read" true (res.A.functions <> []);
  let found = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace found n ()) res.A.functions;
  List.iter
    (fun name ->
      if not (Hashtbl.mem found name) then
        Alcotest.failf "Policy names %s, which lib/ does not define" name)
    P.repo_names;
  List.iter
    (fun prefix ->
      if not (List.exists (String.starts_with ~prefix) res.A.functions) then
        Alcotest.failf "Policy prefix %s matches no function in lib/" prefix)
    P.repo_prefixes

(* budget-order counts a function as crypto/gather work when its calls
   reach a kernel module ([Policy.crypto_kernels]).  Over the real
   lib/ tree, every function the policy once listed by hand (by name,
   or by the [Bgv.], mixnet and [Summation_tree.] prefixes) reaches
   one, but [Contribution.of_bytes]: a bounds-checked wire decoder that
   hashes and transforms nothing (its callers in the mixnet gather do
   reach a kernel).  It and the O(1) accessors admission reads before
   the charge are not crypto work. *)
let test_crypto_work_reaches_kernels () =
  let res = Lazy.force lib_result in
  let crypto = Hashtbl.create 512 in
  List.iter (fun n -> Hashtbl.replace crypto n ()) res.A.crypto_work;
  List.iter
    (fun name ->
      if not (Hashtbl.mem crypto name) then Alcotest.failf "%s reaches no crypto kernel" name)
    [
      "Mycelium_core.Runtime.run_batch";
      "Mycelium_core.Runtime.run_query";
      "Mycelium_core.Runtime.run_query_ast";
      "Mycelium_core.Committee.decrypt_and_release";
      "Mycelium_core.Committee.decrypt_batch";
      "Mycelium_core.Committee.genesis";
      "Mycelium_core.Committee.rotate";
      "Mycelium_core.Contribution.build";
      "Mycelium_core.Contribution.build_malicious";
      "Mycelium_core.Contribution.verify";
      "Mycelium_core.Contribution.aggregate_subtree";
      "Mycelium_core.Contribution.aggregate_origin";
      "Mycelium_bgv.Bgv.encrypt";
      "Mycelium_bgv.Bgv.mul";
      "Mycelium_bgv.Bgv.relinearize";
      "Mycelium_mixnet.Sim.run_query_round";
      "Mycelium_core.Summation_tree.build";
    ];
  List.iter
    (fun name ->
      checkb (name ^ " is a function of lib/") true (List.mem name res.A.functions);
      if Hashtbl.mem crypto name then Alcotest.failf "%s counts as crypto work" name)
    [
      "Mycelium_bgv.Bgv.degree";
      "Mycelium_bgv.Bgv.params";
      "Mycelium_bgv.Bgv.plain_modulus";
      "Mycelium_bgv.Bgv.relin_max_degree";
      "Mycelium_core.Contribution.wire_size";
      "Mycelium_core.Contribution.sequence_length";
      "Mycelium_core.Contribution.of_bytes";
    ]

let () =
  Alcotest.run "mycelium-analyze"
    [
      ( "rules-fire",
        [
          Alcotest.test_case "dp-release" `Quick test_dp_release_fires;
          Alcotest.test_case "budget-order" `Quick test_budget_order_fires;
          Alcotest.test_case "epsilon-flow" `Quick test_epsilon_flow_fires;
          Alcotest.test_case "pool-purity" `Quick test_pool_purity_fires;
          Alcotest.test_case "unused-export" `Quick test_unused_export_fires;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "suppressed-twins" `Quick test_suppressed_twins;
          Alcotest.test_case "unused-export-twin" `Quick test_unused_export_suppressed;
          Alcotest.test_case "rule-table" `Quick test_rule_table;
        ] );
      ("json", [ Alcotest.test_case "report-shape" `Quick test_json_report ]);
      ( "unused-export",
        [
          Alcotest.test_case "own unit is no caller" `Quick test_own_unit_no_caller;
          Alcotest.test_case "sibling under the wrapper" `Quick test_sibling_under_wrapper;
          Alcotest.test_case "module used whole" `Quick test_module_used_whole;
          Alcotest.test_case "every copy counts" `Quick test_every_copy_counts;
          Alcotest.test_case "wrapper names" `Quick test_wrapper_names;
          Alcotest.test_case "aliases resolve" `Quick test_aliases_resolve;
          Alcotest.test_case "nested signatures" `Quick test_nested_signature_exports;
          Alcotest.test_case "exports counted" `Quick test_exports_counted;
          Alcotest.test_case "callers count" `Quick test_callers_count;
        ] );
      ( "run",
        [
          Alcotest.test_case "a caller is no root" `Quick test_caller_is_no_root;
          Alcotest.test_case "a unit under two roots is read once" `Quick test_unit_read_once;
          Alcotest.test_case "each run reads the tree afresh" `Quick test_rerun_reads_afresh;
        ] );
      ( "cli",
        [
          Alcotest.test_case "empty root exits 2" `Quick test_cli_empty_root;
          Alcotest.test_case "violations exit 1" `Quick test_cli_violations;
          Alcotest.test_case "suppressed only exits 0" `Quick test_cli_suppressed_only;
        ] );
      ( "policy",
        [
          Alcotest.test_case "names resolve in lib" `Quick test_policy_names_resolve;
          Alcotest.test_case "crypto work reaches a kernel" `Quick
            test_crypto_work_reaches_kernels;
        ] );
    ]
