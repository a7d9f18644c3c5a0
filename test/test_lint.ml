(* mycelium-lint suite (DESIGN.md §10): every rule is proven live
   against a firing fixture and proven silenceable against a suppressed
   one, with exact rule ids and line numbers asserted out of the JSON
   report — so a regression in either the rules or the suppression
   machinery turns the tree red, not silently green.

   The fixtures live in test/lint_fixtures/ (excluded from the repo
   walk and from the build); [run ~force_zone] pins them to the zone
   whose rule set they exercise.

   The typed-comparison cells at the bottom are the satellite
   regression tests for the poly-compare sweep: the handful of sites
   where swapping polymorphic for typed comparison could change
   behavior (floats with NaN, sum types, basis checks) are pinned. *)

module L = Mycelium_lint.Lint
module Json = Mycelium_obs.Obs.Json
module Stats = Mycelium_util.Stats
module Rng = Mycelium_util.Rng
module Ast = Mycelium_query.Ast
module Parser = Mycelium_query.Parser
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Fault_plan = Mycelium_faults.Fault_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sites = Alcotest.(list (pair string int))
(* (rule, line) pairs in report order *)

let site_list vs = List.map (fun (v : L.violation) -> (v.rule, v.line)) vs

let fixture zone root = L.run ~force_zone:zone ~roots:[ "lint_fixtures/" ^ root ] ()

let only file vs = List.filter (fun (v : L.violation) -> Filename.basename v.file = file) vs

(* ------------------------------------------------------------------ *)
(* Rules fire, with exact positions                                    *)
(* ------------------------------------------------------------------ *)

let lib_report = lazy (fixture L.Lib "lib")
let hot_report = lazy (fixture L.Lib_hot "hot")

let test_poly_compare_fires () =
  let r = Lazy.force lib_report in
  Alcotest.check sites "poly-compare sites"
    [ ("poly-compare", 5); ("poly-compare", 6); ("poly-compare", 7); ("poly-compare", 8) ]
    (site_list (only "fire_poly_compare.ml" r.violations))

let test_poly_compare_int64_fires () =
  (* The boxed-integer extension: suffixed literals are no longer
     immediate, and Int64/Int32 constants and application results are
     evidently structured. *)
  let r = Lazy.force lib_report in
  Alcotest.check sites "poly-compare int64 sites"
    [ ("poly-compare", 3); ("poly-compare", 4); ("poly-compare", 5) ]
    (site_list (only "fire_poly_compare_int64.ml" r.violations))

let test_determinism_fires () =
  let r = Lazy.force lib_report in
  Alcotest.check sites "determinism sites"
    [ ("determinism", 3); ("determinism", 4); ("determinism", 5) ]
    (site_list (only "fire_determinism.ml" r.violations))

let test_rng_capture_fires () =
  let r = Lazy.force lib_report in
  Alcotest.check sites "rng-capture sites"
    [ ("rng-capture", 4) ]
    (site_list (only "fire_rng_capture.ml" r.violations))

let test_interface_fires () =
  let r = Lazy.force lib_report in
  Alcotest.check sites "interface: t without equal/compare"
    [ ("interface", 3) ]
    (site_list (only "fire_interface.mli" r.violations));
  Alcotest.check sites "interface: missing .mli"
    [ ("interface", 1) ]
    (site_list (only "no_mli.ml" r.violations))

let test_obs_guard_fires () =
  let r = Lazy.force hot_report in
  Alcotest.check sites "obs-guard sites"
    [ ("obs-guard", 4); ("obs-guard", 6) ]
    (site_list (only "fire_obs_guard.ml" r.violations));
  (* The Bigarray extension of the allocating-head set: an unguarded
     scratch create inside a butterfly's disabled path fires. *)
  Alcotest.check sites "obs-guard bigarray sites"
    [ ("obs-guard", 7) ]
    (site_list (only "fire_obs_guard_ba.ml" r.violations))

let test_obs_names_fires () =
  (* The registry half of obs-guard, live in the plain-lib zone: every
     registration head (counter/gauge/histogram, bare or fully
     qualified), span, instant and sampled span named with an inline
     literal fires; the Obs.Names-drawn names on the last three lines
     stay silent. *)
  let r = Lazy.force lib_report in
  Alcotest.check sites "obs-names sites"
    [ ("obs-guard", 3); ("obs-guard", 4); ("obs-guard", 5); ("obs-guard", 6);
      ("obs-guard", 7); ("obs-guard", 8) ]
    (site_list (only "fire_obs_names.ml" r.violations));
  (* The PR9 serving-layer names: only the ad-hoc literal fires; the
     four serve.* registrations drawn from Obs.Names stay silent. *)
  Alcotest.check sites "obs-names serve sites"
    [ ("obs-guard", 4) ]
    (site_list (only "fire_obs_names_serve.ml" r.violations))

let test_clean_files_are_clean () =
  let r = Lazy.force lib_report in
  Alcotest.check sites "clean.ml" [] (site_list (only "clean.ml" r.violations));
  Alcotest.check sites "clean.mli" [] (site_list (only "clean.mli" r.violations));
  Alcotest.check sites "clean.ml suppressed" [] (site_list (only "clean.ml" r.suppressed))

let test_parse_error () =
  let vs, _ = L.lint_source ~zone:L.Lib ~file:"broken.ml" ~kind:L.Ml "let = (" in
  Alcotest.check sites "parse failure surfaces as a violation"
    [ ("parse-error", 1) ] (site_list vs)

(* ------------------------------------------------------------------ *)
(* Suppressions silence, and are themselves reported                   *)
(* ------------------------------------------------------------------ *)

let test_suppressions_silence () =
  let r = Lazy.force lib_report in
  let h = Lazy.force hot_report in
  List.iter
    (fun file ->
      Alcotest.check sites (file ^ " has no live violations") []
        (site_list (only file r.violations)))
    [ "suppressed_poly_compare.ml"; "suppressed_poly_compare_int64.ml";
      "suppressed_determinism.ml"; "suppressed_rng_capture.ml";
      "suppressed_interface.mli"; "suppressed_obs_names.ml";
      "suppressed_obs_names_serve.ml" ];
  Alcotest.check sites "suppressed_obs_guard.ml has no live violations" []
    (site_list (only "suppressed_obs_guard.ml" h.violations));
  Alcotest.check sites "suppressed_obs_guard_ba.ml has no live violations" []
    (site_list (only "suppressed_obs_guard_ba.ml" h.violations))

let test_suppressions_are_counted () =
  let r = Lazy.force lib_report in
  let h = Lazy.force hot_report in
  (* comment form and attribute form both land in the suppressed list *)
  Alcotest.check sites "poly-compare suppressions recorded"
    [ ("poly-compare", 6); ("poly-compare", 8) ]
    (site_list (only "suppressed_poly_compare.ml" r.suppressed));
  Alcotest.check sites "poly-compare int64 suppression recorded"
    [ ("poly-compare", 4) ]
    (site_list (only "suppressed_poly_compare_int64.ml" r.suppressed));
  Alcotest.check sites "determinism suppression recorded"
    [ ("determinism", 4) ]
    (site_list (only "suppressed_determinism.ml" r.suppressed));
  Alcotest.check sites "rng-capture suppression recorded"
    [ ("rng-capture", 5) ]
    (site_list (only "suppressed_rng_capture.ml" r.suppressed));
  Alcotest.check sites "interface suppression recorded"
    [ ("interface", 4) ]
    (site_list (only "suppressed_interface.mli" r.suppressed));
  Alcotest.check sites "obs-names suppression recorded"
    [ ("obs-guard", 5); ("obs-guard", 9); ("obs-guard", 13); ("obs-guard", 17) ]
    (site_list (only "suppressed_obs_names.ml" r.suppressed));
  Alcotest.check sites "obs-names serve suppression recorded"
    [ ("obs-guard", 5) ]
    (site_list (only "suppressed_obs_names_serve.ml" r.suppressed));
  Alcotest.check sites "obs-guard suppression recorded"
    [ ("obs-guard", 5) ]
    (site_list (only "suppressed_obs_guard.ml" h.suppressed));
  Alcotest.check sites "obs-guard bigarray suppression recorded"
    [ ("obs-guard", 5) ]
    (site_list (only "suppressed_obs_guard_ba.ml" h.suppressed))

(* ------------------------------------------------------------------ *)
(* JSON report round-trip                                              *)
(* ------------------------------------------------------------------ *)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "missing member %s" k

let test_json_report () =
  let r = Lazy.force lib_report in
  let j =
    match Json.parse (Json.to_string (L.json_of_report r)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "report JSON does not re-parse: %s" e
  in
  (match member_exn "tool" j with
  | Json.Str s -> checkb "tool name" true (String.length s > 0)
  | _ -> Alcotest.fail "tool is not a string");
  (match member_exn "violation_count" j with
  | Json.Int n -> checki "violation_count matches list" (List.length r.violations) n
  | _ -> Alcotest.fail "violation_count is not an int");
  let entries =
    match member_exn "violations" j with
    | Json.List l -> l
    | _ -> Alcotest.fail "violations is not a list"
  in
  let decoded =
    List.map
      (fun e ->
        match (member_exn "rule" e, member_exn "file" e, member_exn "line" e) with
        | Json.Str rule, Json.Str file, Json.Int line -> (rule, Filename.basename file, line)
        | _ -> Alcotest.fail "violation entry shape")
      entries
  in
  (* exact (rule, file, line) triples out of the machine-readable report *)
  checkb "rng-capture at fire_rng_capture.ml:4" true
    (List.mem ("rng-capture", "fire_rng_capture.ml", 4) decoded);
  checkb "interface at fire_interface.mli:3" true
    (List.mem ("interface", "fire_interface.mli", 3) decoded);
  checkb "missing-mli at no_mli.ml:1" true
    (List.mem ("interface", "no_mli.ml", 1) decoded);
  checki "decoded entry count" (List.length r.violations) (List.length decoded)

let test_repo_zone_map () =
  let z p = L.zone_of_rel p in
  let is_some_eq a b = match (a, b) with Some x, Some y -> x = y | None, None -> true | _ -> false in
  checkb "rng.ml is the rng zone" true (is_some_eq (z "lib/util/rng.ml") (Some L.Lib_rng));
  checkb "lib/math is hot" true (is_some_eq (z "lib/math/ntt.ml") (Some L.Lib_hot));
  checkb "lib/bgv is hot" true (is_some_eq (z "lib/bgv/bgv.ml") (Some L.Lib_hot));
  checkb "lib/query is plain lib" true (is_some_eq (z "lib/query/ast.ml") (Some L.Lib));
  checkb "bench is bench" true (is_some_eq (z "bench/main.ml") (Some L.Bench));
  checkb "README is not analysed" true (is_some_eq (z "README.md") None)

(* ------------------------------------------------------------------ *)
(* Typed-comparison regressions from the sweep                         *)
(* ------------------------------------------------------------------ *)

let test_median_nan () =
  (* Float.compare (like the polymorphic compare it replaced) sorts NaN
     below every number, so a NaN contaminates the low order statistics
     but leaves the high ones intact — pinned so a future "fix" is
     loud. *)
  checkb "the NaN sorts below the median" true
    (Float.equal (Stats.median [| 3.; Float.nan; 1.; 2.; 5. |]) 2.);
  checkb "the NaN is the lower middle" true (Float.is_nan (Stats.median [| 1.; Float.nan |]))

let test_geometric_p_one () =
  (* rng.ml: the p = 1. short-circuit now uses Float.equal. *)
  let rng = Rng.create 7L in
  checki "geometric at p=1 is 0 failures" 0 (Rng.geometric rng 1.)

let test_ast_compare_field () =
  checkb "field order is total" true (Ast.compare_field Ast.Inf Ast.Setting < 0);
  checkb "compare_field is reflexive" true (Ast.compare_field Ast.Age Ast.Age = 0)

let test_rns_equal () =
  let a = Rns.standard ~degree:64 ~prime_bits:20 ~levels:2 in
  let b = Rns.standard ~degree:64 ~prime_bits:20 ~levels:2 in
  let c = Rns.standard ~degree:64 ~prime_bits:20 ~levels:3 in
  checkb "same construction, equal bases" true (Rns.equal a b);
  checkb "level count differs" false (Rns.equal a c);
  (* Rq's basis checks now go through Rns.equal *)
  let x = Rq.of_centered_coeffs a (Array.make 64 1) in
  let y = Rq.of_centered_coeffs c (Array.make 64 1) in
  checkb "cross-basis add rejected" true
    (match Rq.add x y with _ -> false | exception Invalid_argument _ -> true)

let test_fault_plan_none () =
  let p1 = Fault_plan.make ~seed:9L ~drop_rate:0.25 ~crashed_committee:[ 1; 3 ] () in
  checkb "none is none" true (Fault_plan.is_none Fault_plan.none);
  checkb "p1 is not none" false (Fault_plan.is_none p1)

let () =
  Alcotest.run "lint"
    [
      ( "rules-fire",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare_fires;
          Alcotest.test_case "poly-compare-int64" `Quick test_poly_compare_int64_fires;
          Alcotest.test_case "determinism" `Quick test_determinism_fires;
          Alcotest.test_case "rng-capture" `Quick test_rng_capture_fires;
          Alcotest.test_case "interface" `Quick test_interface_fires;
          Alcotest.test_case "obs-guard" `Quick test_obs_guard_fires;
          Alcotest.test_case "obs-names" `Quick test_obs_names_fires;
          Alcotest.test_case "clean-files" `Quick test_clean_files_are_clean;
          Alcotest.test_case "parse-error" `Quick test_parse_error;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "silence" `Quick test_suppressions_silence;
          Alcotest.test_case "counted" `Quick test_suppressions_are_counted;
        ] );
      ( "report",
        [
          Alcotest.test_case "json-round-trip" `Quick test_json_report;
          Alcotest.test_case "zone-map" `Quick test_repo_zone_map;
        ] );
      ( "typed-compare-regressions",
        [
          Alcotest.test_case "median-nan" `Quick test_median_nan;
          Alcotest.test_case "geometric-p1" `Quick test_geometric_p_one;
          Alcotest.test_case "ast-compare-field" `Quick test_ast_compare_field;
          Alcotest.test_case "rns-equal" `Quick test_rns_equal;
          Alcotest.test_case "fault-plan-none" `Quick test_fault_plan_none;
        ] );
    ]
