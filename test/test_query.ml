(* Tests for mycelium_query: parser, analysis (Figure 6 regression,
   sensitivity, feasibility per §6.2) and the reference semantics over
   generated epidemic graphs. *)

module Rng = Mycelium_util.Rng
module Schema = Mycelium_graph.Schema
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Ast = Mycelium_query.Ast
module Parser = Mycelium_query.Parser
module Analysis = Mycelium_query.Analysis
module Corpus = Mycelium_query.Corpus
module Semantics = Mycelium_query.Semantics
module Params = Mycelium_bgv.Params

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_corpus () =
  (* All ten Figure 2 queries are expressible and parse (the first half
     of the §6.2 generality result). *)
  List.iter
    (fun (e : Corpus.entry) ->
      checkb (e.Corpus.id ^ " parses") true (e.Corpus.query.Ast.name = e.Corpus.id))
    Corpus.all;
  checki "ten queries" 10 (List.length Corpus.all)

let test_parse_print_fixpoint () =
  (* print . parse . print = print *)
  List.iter
    (fun (e : Corpus.entry) ->
      let printed = Ast.to_string e.Corpus.query in
      let reparsed = Parser.parse_exn ~name:e.Corpus.id printed in
      Alcotest.(check string)
        (e.Corpus.id ^ " fixpoint") printed (Ast.to_string reparsed))
    Corpus.all

let test_parse_structure_q1 () =
  let q = (Corpus.find "Q1").Corpus.query in
  checki "two hops" 2 q.Ast.hops;
  (match q.Ast.output with
  | Ast.Histo Ast.Count -> ()
  | _ -> Alcotest.fail "expected HISTO(COUNT(*))");
  match q.Ast.where with
  | Ast.And (Ast.Truthy { Ast.group = Ast.Dest; field = Ast.Inf }, Ast.Truthy { Ast.group = Ast.Self; field = Ast.Inf }) -> ()
  | _ -> Alcotest.fail "unexpected WHERE shape"

let test_parse_structure_q10 () =
  let q = (Corpus.find "Q10").Corpus.query in
  (match q.Ast.output with
  | Ast.Gsum { ratio = true; clip = None; num = Ast.Sum { Ast.group = Ast.Dest; field = Ast.Inf } } -> ()
  | _ -> Alcotest.fail "expected GSUM ratio");
  match q.Ast.group_by with
  | Ast.By_fn ("stage", Ast.Minus_col (Ast.Col { Ast.group = Ast.Dest; field = Ast.T_inf }, { Ast.group = Ast.Self; field = Ast.T_inf })) -> ()
  | _ -> Alcotest.fail "expected GROUP BY stage(dest.tInf-self.tInf)"

let test_parse_clip () =
  let q = Parser.parse_exn "SELECT GSUM(SUM(edge.contacts)) FROM neigh(1) CLIP [2,8]" in
  match q.Ast.output with
  | Ast.Gsum { clip = Some (2, 8); ratio = false; _ } -> ()
  | _ -> Alcotest.fail "clip not parsed"

let test_parse_errors () =
  let bad =
    [
      "SELECT FROM neigh(1)" (* missing output *);
      "SELECT HISTO(COUNT(*)) FROM neigh(0)" (* zero hops *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.duration" (* field/group mismatch *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE edge.inf" (* field/group mismatch *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE bogus.inf" (* unknown group *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.wat" (* unknown field *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) trailing" (* trailing tokens *);
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE (self.inf" (* unbalanced *);
      "SELECT CLIP [1,2]" (* nonsense *);
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted: %s" src)
    bad

let test_parse_case_insensitive_keywords () =
  let q = Parser.parse_exn "select histo(count(*)) from NEIGH(1) where self.inf" in
  checki "hops" 1 q.Ast.hops

(* Random-query fuzzing: generate well-formed ASTs, print them, parse
   them back, and require the printed forms to agree (print . parse .
   print = print). *)
let gen_query =
  let open QCheck.Gen in
  let vertex_field = oneofl [ Ast.Inf; Ast.T_inf; Ast.Age ] in
  let edge_field = oneofl [ Ast.Duration; Ast.Contacts; Ast.Last_contact ] in
  let gen_colref =
    oneof
      [
        (let* f = vertex_field in
         let* g = oneofl [ Ast.Self; Ast.Dest ] in
         return { Ast.group = g; field = f });
        (let* f = edge_field in
         return { Ast.group = Ast.Edge; field = f });
      ]
  in
  let gen_scalar =
    oneof
      [
        map (fun c -> Ast.Col c) gen_colref;
        map (fun v -> Ast.Const v) (int_range 0 50);
        (let* c = gen_colref in
         let* v = int_range 1 20 in
         return (Ast.Plus (Ast.Col c, v)));
        (let* c = gen_colref in
         let* v = int_range 1 20 in
         return (Ast.Minus (Ast.Col c, v)));
      ]
  in
  let gen_atom =
    oneof
      [
        map (fun c -> Ast.Truthy c) gen_colref;
        (let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq ] in
         let* a = gen_scalar in
         let* b = gen_scalar in
         return (Ast.Cmp (op, a, b)));
        (let* x = gen_scalar in
         let* lo = int_range 0 10 in
         let* hi = int_range 11 30 in
         return (Ast.Between (x, Ast.Const lo, Ast.Const hi)));
        (let* f = edge_field in
         let* name = oneofl [ "onSubway"; "isHousehold" ] in
         return (Ast.Fn (name, { Ast.group = Ast.Edge; field = f })));
      ]
  in
  let gen_pred =
    let* n = int_range 1 3 in
    let* atoms = list_repeat n gen_atom in
    return (List.fold_left (fun acc a -> Ast.And (acc, a)) (List.hd atoms) (List.tl atoms))
  in
  let gen_agg =
    oneof [ return Ast.Count; map (fun c -> Ast.Sum c) gen_colref ]
  in
  let gen_output =
    oneof
      [
        map (fun a -> Ast.Histo a) gen_agg;
        (let* a = gen_agg in
         let* ratio = bool in
         let* clip = opt (pair (int_range 0 5) (int_range 6 20)) in
         return (Ast.Gsum { num = a; ratio; clip }));
      ]
  in
  let gen_group =
    oneofl
      [
        Ast.No_group;
        Ast.By_col { Ast.group = Ast.Self; field = Ast.Age };
        Ast.By_col { Ast.group = Ast.Edge; field = Ast.Setting };
        Ast.By_fn ("isHousehold", Ast.Col { Ast.group = Ast.Edge; field = Ast.Location });
      ]
  in
  let* output = gen_output in
  let* hops = int_range 1 3 in
  let* where = oneof [ return Ast.True; gen_pred ] in
  let* group_by = gen_group in
  return { Ast.name = "fuzz"; output; hops; where; group_by }

let prop_parse_print_fixpoint =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"random queries: print.parse.print = print"
       (QCheck.make ~print:Ast.to_string gen_query)
       (fun q ->
         let printed = Ast.to_string q in
         match Parser.parse printed with
         | Error _ -> false
         | Ok q' -> Ast.to_string q' = printed))

let prop_analysis_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"analysis is total on well-formed queries"
       (QCheck.make ~print:Ast.to_string gen_query)
       (fun q ->
         match Analysis.analyze q with
         | Ok info ->
           info.Analysis.ciphertext_count >= 1
           && info.Analysis.layout.Analysis.total_bins >= 1
           && info.Analysis.sensitivity > 0.
         | Error _ -> true (* rejection is fine; crashing is not *)))

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_fig6_ciphertext_counts () =
  (* Figure 6 regression: exact reproduction of the reported counts. *)
  List.iter
    (fun (id, expected) ->
      let info = Analysis.analyze_exn (Corpus.find id).Corpus.query in
      checki (id ^ " ciphertexts") expected info.Analysis.ciphertext_count)
    Corpus.paper_ciphertext_counts

let test_classification () =
  let atom src =
    let q = Parser.parse_exn ("SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE " ^ src) in
    match Analysis.classify_atom q.Ast.where with Ok s -> s | Error e -> Alcotest.fail e
  in
  checkb "self.inf is origin-side" true (atom "self.inf" = Analysis.Origin_side);
  checkb "dest.inf is dest-side" true (atom "dest.inf" = Analysis.Dest_side);
  checkb "edge fn is origin-side" true (atom "onSubway(edge.location)" = Analysis.Origin_side);
  checkb "dest+edge is dest-side" true
    (atom "dest.tInf IN [edge.last_contact+5, edge.last_contact+10]" = Analysis.Dest_side);
  checkb "dest vs self is cross(tInf)" true
    (atom "dest.tInf > self.tInf+2" = Analysis.Cross Ast.T_inf);
  checkb "age window is cross(age)" true
    (atom "self.age IN [dest.age-10, dest.age+10]" = Analysis.Cross Ast.Age)

let test_influence_bound () =
  (* 1-hop with d=10: the ball is 11; 2-hop: 1 + 10 + 10*9 = 101. *)
  let info1 = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  checki "1-hop ball" 11 info1.Analysis.influence_bound;
  let info2 = Analysis.analyze_exn (Corpus.find "Q1").Corpus.query in
  checki "2-hop ball" 101 info2.Analysis.influence_bound;
  checki "Q1 multiplications = d^2" 100 info2.Analysis.multiplications;
  checki "Q5 multiplications = d" 10 info1.Analysis.multiplications

let test_sensitivity () =
  let q5 = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  (* HISTO: 2 per influenced origin. *)
  Alcotest.(check (float 1e-9)) "Q5 sensitivity" 22. q5.Analysis.sensitivity;
  let q8 = Analysis.analyze_exn (Corpus.find "Q8").Corpus.query in
  (* GSUM ratio clipped to [0,1]: width 1 x 11. *)
  Alcotest.(check (float 1e-9)) "Q8 sensitivity" 11. q8.Analysis.sensitivity

let test_layouts_fit_ring () =
  List.iter
    (fun (e : Corpus.entry) ->
      let info = Analysis.analyze_exn e.Corpus.query in
      checkb
        (e.Corpus.id ^ " fits N=32768")
        true
        (info.Analysis.layout.Analysis.total_bins <= Params.paper.Params.degree))
    Corpus.all

let test_generality_section_6_2 () =
  (* The §6.2 result: every query is expressible; every query except Q1
     fits the HE multiplication budget at the paper's parameters. *)
  let budget = Analysis.max_multiplications Params.paper in
  checkb "budget supports 1-hop (d=10)" true (budget >= 10);
  checkb "budget below Q1's 100" true (budget < 100);
  List.iter
    (fun (e : Corpus.entry) ->
      let info = Analysis.analyze_exn e.Corpus.query in
      match (e.Corpus.id, Analysis.feasible info Params.paper) with
      | "Q1", Error _ -> ()
      | "Q1", Ok () -> Alcotest.fail "Q1 should exceed the noise budget (§6.2)"
      | id, Ok () -> ignore id
      | id, Error msg -> Alcotest.failf "%s unexpectedly infeasible: %s" id msg)
    Corpus.all

let test_group_kinds () =
  let kind id =
    (Analysis.analyze_exn (Corpus.find id).Corpus.query).Analysis.group_kind
  in
  checkb "Q5 self group" true (kind "Q5" = Analysis.Group_self);
  checkb "Q7 edge group" true (kind "Q7" = Analysis.Group_edge);
  checkb "Q8 edge group" true (kind "Q8" = Analysis.Group_edge);
  checkb "Q10 cross group" true (kind "Q10" = Analysis.Group_cross Ast.T_inf);
  checkb "Q1 no group" true (kind "Q1" = Analysis.Group_none)

let test_group_counts () =
  let count id =
    (Analysis.analyze_exn (Corpus.find id).Corpus.query).Analysis.layout.Analysis.group_count
  in
  checki "Q5 ten age groups" 10 (count "Q5");
  checki "Q7 three settings" 3 (count "Q7");
  checki "Q8 two groups" 2 (count "Q8");
  checki "Q10 two stages" 2 (count "Q10")

let test_bucketize () =
  checki "age 34 -> decade 3" 3 (Analysis.bucketize Ast.Age 34);
  checki "age 99 -> decade 9" 9 (Analysis.bucketize Ast.Age 99);
  checki "duration 90min -> 1h" 1 (Analysis.bucketize Ast.Duration 90);
  checki "duration clamped" 12 (Analysis.bucketize Ast.Duration 100000);
  checki "contacts capped" 20 (Analysis.bucketize Ast.Contacts 50);
  checki "inf clamped" 1 (Analysis.bucketize Ast.Inf 7)

let test_degree_bound_parameter () =
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q1").Corpus.query in
  checki "d=4, k=2 ball" 17 info.Analysis.influence_bound;
  checki "d=4 mults" 16 info.Analysis.multiplications

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let test_graph =
  lazy
    (let rng = Rng.create 4242L in
     let g = Cg.generate { Cg.default_config with Cg.population = 300 } rng in
     let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
     g)

(* Every vertex's data, in vertex order. *)
let vertices g = List.init (Cg.population g) (Cg.vertex g)
let infected_count g = List.length (List.filter (fun v -> v.Schema.infected) (vertices g))

let test_epidemic_nontrivial () =
  let g = Lazy.force test_graph in
  let infected = infected_count g in
  checkb "some infections" true (infected > 10);
  checkb "not everyone" true (infected < 300);
  checkb "degree bound respected" true (Cg.max_degree g <= 10);
  (* Diagnosed vertices have t_inf within the horizon. *)
  List.iter
    (fun v ->
      match v.Schema.t_inf with
      | Some t -> checkb "t_inf in range" true (t >= 0 && t < Cg.horizon_days g)
      | None -> checkb "uninfected has no t_inf" true (not v.Schema.infected))
    (vertices g)

let test_split_where () =
  let q = (Corpus.find "Q4").Corpus.query in
  match Semantics.split_where q.Ast.where with
  | Ok (globals, rows) ->
    checki "one global (self.inf)" 1 (List.length globals);
    checki "one row-level (onSubway)" 1 (List.length rows)
  | Error e -> Alcotest.fail e

let test_split_where_rejects_mixed_or () =
  let q = Parser.parse_exn "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.inf OR dest.inf" in
  match Semantics.split_where q.Ast.where with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-side OR should be rejected"

let test_split_where_allows_same_side_or () =
  let q =
    Parser.parse_exn "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE (dest.inf OR dest.tInf) AND self.inf"
  in
  match Semantics.split_where q.Ast.where with
  | Ok (globals, rows) ->
    checki "self.inf global" 1 (List.length globals);
    checki "dest disjunction row-level" 1 (List.length rows)
  | Error e -> Alcotest.fail e

let test_q1_semantics_manual () =
  (* Hand-checkable micro-graph: a path a - b - c, all infected. *)
  let rng = Rng.create 7L in
  let g = Cg.generate { Cg.default_config with Cg.population = 3; extra_contact_rate = 0.; mean_household = 3. } rng in
  (* Force a known topology is hard via generator config; instead check
     consistency: Q1 exponent for each origin equals the infected count
     in its 2-hop ball. *)
  let g = if Cg.edge_count g >= 1 then g else g in
  let info = Analysis.analyze_exn (Corpus.find "Q1").Corpus.query in
  (* Infect everyone. *)
  for i = 0 to 2 do
    let v = Cg.vertex g i in
    Cg.set_vertex g i { v with Schema.infected = true; t_inf = Some 3 }
  done;
  for origin = 0 to 2 do
    let ball = Cg.k_hop g origin ~k:2 in
    let expected = 1 + List.length ball in
    match Semantics.local_exponents info g ~origin with
    | Some [ e ] -> checki "counts infected ball" expected e
    | Some _ -> Alcotest.fail "single exponent expected"
    | None -> Alcotest.fail "origin gate should pass"
  done

let test_q1_gate () =
  (* A non-infected origin contributes Enc(0) (None). *)
  let rng = Rng.create 8L in
  let g = Cg.generate { Cg.default_config with Cg.population = 10 } rng in
  let info = Analysis.analyze_exn (Corpus.find "Q1").Corpus.query in
  checkb "uninfected origin skipped" true (Semantics.local_exponents info g ~origin:0 = None)

let test_q5_semantics () =
  (* Q5: contact-count histogram by age; exponent = degree + 1 (the
     origin row), group = origin's decade. *)
  let g = Lazy.force test_graph in
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  let group_stride = info.Analysis.layout.Analysis.count_slots * info.Analysis.layout.Analysis.value_slots in
  for origin = 0 to 20 do
    match Semantics.local_exponents info g ~origin with
    | Some [ e ] ->
      let v = Cg.vertex g origin in
      let expected_group = Schema.age_group v.Schema.age in
      checki "group" expected_group (e / group_stride);
      checki "count" (List.length (Cg.neighbors g origin) + 1) (e mod group_stride)
    | Some _ | None -> Alcotest.fail "Q5 always contributes one exponent"
  done

let test_q8_ratio_packing () =
  let g = Lazy.force test_graph in
  let info = Analysis.analyze_exn (Corpus.find "Q8").Corpus.query in
  let l = info.Analysis.layout in
  let count_stride = l.Analysis.count_slots in
  let group_stride = l.Analysis.count_slots * l.Analysis.value_slots in
  (* Find an infected origin. *)
  let origin = ref (-1) in
  for i = 0 to Cg.population g - 1 do
    if !origin < 0 && (Cg.vertex g i).Schema.infected then origin := i
  done;
  if !origin >= 0 then begin
    match Semantics.local_exponents info g ~origin:!origin with
    | Some exps ->
      checki "one exponent per group" 2 (List.length exps);
      List.iteri
        (fun g_idx e ->
          checki "group region" g_idx (e / group_stride);
          let within = e mod group_stride in
          let s = within / count_stride and c = within mod count_stride in
          checkb "sum <= count" true (s <= c))
        exps
    | None -> Alcotest.fail "infected origin should contribute"
  end

let test_global_histogram_consistency () =
  (* The global histogram sums local contributions; total mass = number
     of contributing origins x groups contributed. *)
  let g = Lazy.force test_graph in
  List.iter
    (fun id ->
      let info = Analysis.analyze_exn (Corpus.find id).Corpus.query in
      let bins = Semantics.global_histogram info g in
      let mass = Array.fold_left ( + ) 0 bins in
      let expected = ref 0 in
      for origin = 0 to Cg.population g - 1 do
        match Semantics.local_exponents info g ~origin with
        | Some exps -> expected := !expected + List.length exps
        | None -> ()
      done;
      checki (id ^ " mass") !expected mass)
    [ "Q1"; "Q4"; "Q5"; "Q8"; "Q10" ]

let test_decode_histogram () =
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  let g = Lazy.force test_graph in
  let bins = Semantics.global_histogram info g in
  match Semantics.decode info (Array.map float_of_int bins) with
  | Semantics.Histogram groups ->
    checki "ten age groups" 10 (Array.length groups);
    let total = Array.fold_left (fun acc (_, arr) -> acc +. Array.fold_left ( +. ) 0. arr) 0. groups in
    checki "every origin counted" (Cg.population g) (int_of_float total)
  | Semantics.Sums _ -> Alcotest.fail "expected histogram"

let test_decode_gsum_ratio () =
  let info = Analysis.analyze_exn (Corpus.find "Q8").Corpus.query in
  let g = Lazy.force test_graph in
  let bins = Semantics.global_histogram info g in
  match Semantics.decode info (Array.map float_of_int bins) with
  | Semantics.Sums groups ->
    checki "two groups" 2 (Array.length groups);
    Array.iter
      (fun (label, v) ->
        checkb (label ^ " non-negative") true (v >= 0.);
        (* Each origin's clipped ratio is at most 1, so the sum is
           bounded by the number of infected origins. *)
        let infected = infected_count g in
        checkb (label ^ " bounded") true (v <= float_of_int infected))
      groups
  | Semantics.Histogram _ -> Alcotest.fail "expected sums"

let test_group_labels () =
  (* The labels a release carries, one per group. *)
  let labels id =
    let info = Analysis.analyze_exn (Corpus.find id).Corpus.query in
    match Semantics.decode info (Array.make info.Analysis.layout.Analysis.total_bins 0.) with
    | Semantics.Histogram groups -> Array.map fst groups
    | Semantics.Sums groups -> Array.map fst groups
  in
  checkb "Q7 settings" true (labels "Q7" = [| "family"; "social"; "work" |]);
  checkb "Q8 household split" true (labels "Q8" = [| "non-household"; "household" |]);
  checkb "Q10 stages" true (labels "Q10" = [| "incubation"; "illness" |]);
  checkb "Q1 single" true (labels "Q1" = [| "all" |])

(* ------------------------------------------------------------------ *)
(* Negative paths: malformed queries, infeasible depth, and budget
   exhaustion all surface as typed [Runtime.query_error] values from
   the full pipeline — never as exceptions.                            *)
(* ------------------------------------------------------------------ *)

module Runtime = Mycelium_core.Runtime

let negative_graph =
  lazy
    (let rng = Rng.create 77L in
     let g =
       Cg.generate
         { Cg.default_config with Cg.population = 16; degree_bound = 4; extra_contact_rate = 1.5 }
         rng
     in
     let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
     g)

let negative_config =
  { Runtime.default_config with Runtime.params = Params.test_small; degree_bound = 4 }

let negative_system = lazy (Runtime.init negative_config (Lazy.force negative_graph))

let neg_err_to_string = function
  | Runtime.Parse_error m -> "parse: " ^ m
  | Runtime.Analysis_error m -> "analysis: " ^ m
  | Runtime.Infeasible m -> "infeasible: " ^ m
  | Runtime.Budget_exhausted r -> Printf.sprintf "budget exhausted (%.2f left)" r
  | Runtime.Invalid_epsilon e -> Printf.sprintf "invalid epsilon %g" e
  | Runtime.Pipeline_error m -> "pipeline: " ^ m

let run_no_raise sys ?(epsilon = 1.0) src =
  try Runtime.run_query ~epsilon sys src
  with ex -> Alcotest.failf "raised %s on %S" (Printexc.to_string ex) src

let test_negative_malformed_histo_gsum () =
  let sys = Lazy.force negative_system in
  let cases =
    [
      "SELECT HISTO() FROM neigh(1)";
      "SELECT HISTO(COUNT(*) FROM neigh(1)";
      "SELECT HISTO(SUM()) FROM neigh(1)";
      "SELECT HISTO(COUNT(dest.inf)) FROM neigh(1)";
      "SELECT GSUM() FROM neigh(1)";
      "SELECT GSUM(SUM(self.inf)) FROM neigh(1) CLIP [1]";
      "SELECT GSUM(SUM(edge.inf)) FROM neigh(1)";
      "SELECT HISTO(GSUM(COUNT(*))) FROM neigh(1)";
      "SELECT HISTO(COUNT(*)) FROM neigh(-1)";
      "SELECT HISTO(COUNT(*)) FROM neigh(one)";
      "SELECT HISTO(COUNT(*))";
    ]
  in
  List.iter
    (fun src ->
      match run_no_raise sys src with
      | Error (Runtime.Parse_error _) | Error (Runtime.Analysis_error _) -> ()
      | Error e -> Alcotest.failf "%S: wrong error class: %s" src (neg_err_to_string e)
      | Ok _ -> Alcotest.failf "accepted malformed query: %S" src)
    cases

let test_negative_deep_neigh_infeasible () =
  (* neigh(k) beyond the HE multiplication budget at these parameters
     is a typed Infeasible, whatever the depth. *)
  let sys = Lazy.force negative_system in
  List.iter
    (fun src ->
      match run_no_raise sys src with
      | Error (Runtime.Infeasible _) -> ()
      | Error e -> Alcotest.failf "%S: wrong error class: %s" src (neg_err_to_string e)
      | Ok _ -> Alcotest.failf "infeasible depth accepted: %S" src)
    [
      "SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf AND self.inf";
      "SELECT HISTO(COUNT(*)) FROM neigh(3) WHERE dest.inf AND self.inf";
      "SELECT HISTO(COUNT(*)) FROM neigh(8) WHERE dest.inf AND self.inf";
    ];
  (* Same boundary straight from Analysis: the query analyzes fine and
     is rejected only by the feasibility check. *)
  let q = Parser.parse_exn "SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf AND self.inf" in
  match Analysis.analyze ~degree_bound:4 q with
  | Error e -> Alcotest.failf "deep query should analyze: %s" e
  | Ok info ->
    (match Analysis.feasible info Params.test_small with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "2-hop should exceed test_small's budget")

let test_negative_budget_exhaustion_typed () =
  let sys =
    Runtime.init
      { negative_config with Runtime.epsilon_budget = 1.0 }
      (Lazy.force negative_graph)
  in
  let sql = (Corpus.find "Q5").Corpus.sql in
  (match run_no_raise sys ~epsilon:0.8 sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first query should fit the budget: %s" (neg_err_to_string e));
  (match run_no_raise sys ~epsilon:0.8 sql with
  | Error (Runtime.Budget_exhausted remaining) ->
    checkb "remaining reported" true (Float.abs (remaining -. 0.2) < 1e-9)
  | Error e -> Alcotest.failf "wrong error class: %s" (neg_err_to_string e)
  | Ok _ -> Alcotest.fail "over-budget query accepted");
  (* Exhaustion is per-charge, not terminal: a smaller request that
     fits the remaining budget still runs. *)
  match run_no_raise sys ~epsilon:0.1 sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "within-budget retry should run: %s" (neg_err_to_string e)

(* ------------------------------------------------------------------ *)
(* Contact graph: loading, clipping, BFS trees                         *)
(* ------------------------------------------------------------------ *)

(* Query sensitivity (§4.7) is computed from the degree bound d, so an
   imported graph must come out of clipping with every degree <= d, and
   the clip must not depend on how the edges were listed: a reloaded
   trace has to clip to the same graph. *)

let vertices n =
  Array.init n (fun i ->
      { Schema.infected = i mod 3 = 0; t_inf = (if i mod 3 = 0 then Some (i mod 14) else None); age = 20 + i; household = i / 2 })

let edge_data i =
  {
    Schema.duration_min = 10 + i;
    contacts = 1 + (i mod 4);
    last_contact = i mod 14;
    location = (if i mod 2 = 0 then Schema.Household else Schema.Workplace);
    setting = (if i mod 2 = 0 then Schema.Family else Schema.Work);
  }

(* a star around 0 over a ring of the other vertices: degree n-1 at the
   hub, 3 elsewhere *)
let star_ring n =
  List.init (n - 1) (fun i -> (0, i + 1, edge_data i))
  @ List.init (n - 1) (fun i -> (i + 1, ((i + 1) mod (n - 1)) + 1, edge_data (100 + i)))

(* every edge once, (min, max) endpoints, sorted *)
let edge_list g =
  List.init (Cg.population g) (fun u ->
      List.filter_map (fun (v, d) -> if u < v then Some (u, v, d) else None) (Cg.neighbors g u))
  |> List.concat |> List.sort compare

let test_clip_bounds_degrees () =
  let n = 12 and d = 3 in
  let g = Cg.of_edges ~degree_bound:d ~vertices:(vertices n) ~edges:(star_ring n) () in
  checki "the hub exceeds the bound" (n - 1) (List.length (Cg.neighbors g 0));
  let c = Cg.clip_to_degree_bound g in
  checkb "every degree within the bound" true (Cg.max_degree c <= d);
  let kept = edge_list c and all = edge_list g in
  checkb "an edge was dropped" true (List.length kept < List.length all);
  checkb "kept edges are original edges, data and all" true
    (List.for_all (fun e -> List.mem e all) kept);
  checki "edge count agrees with the adjacency" (List.length kept) (Cg.edge_count c);
  checkb "vertex data copied" true (Cg.vertex c 3 = Cg.vertex g 3);
  checki "an explicit bound wins" 2 (Cg.max_degree (Cg.clip_to_degree_bound ~bound:2 g))

let test_clip_identity_within_bound () =
  let g = Cg.generate { Cg.default_config with Cg.population = 200 } (Rng.create 91L) in
  checkb "generated within the bound" true (Cg.max_degree g <= Cg.default_config.Cg.degree_bound);
  checkb "clipping keeps every edge" true (edge_list (Cg.clip_to_degree_bound g) = edge_list g)

let test_clip_ignores_edge_order () =
  let n = 12 and d = 3 in
  let edges = star_ring n in
  let reordered = List.rev_map (fun (u, v, data) -> (v, u, data)) edges in
  let clip es = edge_list (Cg.clip_to_degree_bound (Cg.of_edges ~degree_bound:d ~vertices:(vertices n) ~edges:es ())) in
  checkb "reversed, endpoints swapped: same clipped graph" true (clip edges = clip reordered)

let test_of_edges_rejects () =
  let v = vertices 4 in
  let load edges () = ignore (Cg.of_edges ~degree_bound:3 ~vertices:v ~edges ()) in
  Alcotest.check_raises "self-loop" (Invalid_argument "Contact_graph.of_edges: self-loop")
    (load [ (1, 1, edge_data 0) ]);
  Alcotest.check_raises "duplicate, either direction"
    (Invalid_argument "Contact_graph.of_edges: duplicate edge")
    (load [ (1, 2, edge_data 0); (2, 1, edge_data 1) ]);
  Alcotest.check_raises "out of range" (Invalid_argument "Contact_graph.of_edges: vertex out of range")
    (load [ (0, 4, edge_data 0) ]);
  Alcotest.check_raises "one vertex" (Invalid_argument "Contact_graph.of_edges: population too small")
    (fun () -> ignore (Cg.of_edges ~degree_bound:3 ~vertices:(vertices 1) ~edges:[] ()))

(* Flooding (§4.4) sends each hop's aggregate to the vertex it came
   from: every vertex of the k-hop ball must have a parent one hop
   closer to the origin, adjacent to it. *)
let test_spanning_parents_upstream () =
  let g = Lazy.force test_graph in
  List.iter
    (fun origin ->
      let ball = Cg.k_hop g origin ~k:3 in
      let dist = Hashtbl.create 64 in
      Hashtbl.replace dist origin 0;
      List.iter (fun (v, d) -> Hashtbl.replace dist v d) ball;
      let parents = Cg.spanning_parents g origin ~k:3 in
      checki "a parent for every vertex of the ball" (List.length ball) (Hashtbl.length parents);
      List.iter
        (fun (v, d) ->
          match Hashtbl.find_opt parents v with
          | None -> Alcotest.failf "vertex %d has no parent" v
          | Some p ->
            checkb "parent is a neighbour" true (Cg.edge g v p <> None);
            checki "parent is one hop closer" (d - 1) (Hashtbl.find dist p))
        ball)
    [ 0; 17; 150; 299 ]

let () =
  Alcotest.run "mycelium-query"
    [
      ( "parser",
        [
          Alcotest.test_case "corpus parses" `Quick test_parse_corpus;
          Alcotest.test_case "print/parse fixpoint" `Quick test_parse_print_fixpoint;
          Alcotest.test_case "Q1 structure" `Quick test_parse_structure_q1;
          Alcotest.test_case "Q10 structure" `Quick test_parse_structure_q10;
          Alcotest.test_case "CLIP extension" `Quick test_parse_clip;
          Alcotest.test_case "errors rejected" `Quick test_parse_errors;
          Alcotest.test_case "case-insensitive keywords" `Quick test_parse_case_insensitive_keywords;
          prop_parse_print_fixpoint;
          prop_analysis_total;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "Figure 6 ciphertext counts" `Quick test_fig6_ciphertext_counts;
          Alcotest.test_case "predicate classification" `Quick test_classification;
          Alcotest.test_case "influence bounds" `Quick test_influence_bound;
          Alcotest.test_case "sensitivity (§4.7)" `Quick test_sensitivity;
          Alcotest.test_case "layouts fit the ring" `Quick test_layouts_fit_ring;
          Alcotest.test_case "generality (§6.2)" `Quick test_generality_section_6_2;
          Alcotest.test_case "group kinds" `Quick test_group_kinds;
          Alcotest.test_case "group counts" `Quick test_group_counts;
          Alcotest.test_case "bucketization" `Quick test_bucketize;
          Alcotest.test_case "degree bound parameter" `Quick test_degree_bound_parameter;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "epidemic generates workload" `Quick test_epidemic_nontrivial;
          Alcotest.test_case "WHERE splitting" `Quick test_split_where;
          Alcotest.test_case "mixed OR rejected" `Quick test_split_where_rejects_mixed_or;
          Alcotest.test_case "same-side OR allowed" `Quick test_split_where_allows_same_side_or;
          Alcotest.test_case "Q1 counts infected ball" `Quick test_q1_semantics_manual;
          Alcotest.test_case "Q1 origin gate" `Quick test_q1_gate;
          Alcotest.test_case "Q5 exponent layout" `Quick test_q5_semantics;
          Alcotest.test_case "Q8 ratio packing" `Quick test_q8_ratio_packing;
          Alcotest.test_case "global histogram mass" `Quick test_global_histogram_consistency;
          Alcotest.test_case "decode histogram" `Quick test_decode_histogram;
          Alcotest.test_case "decode GSUM ratio" `Quick test_decode_gsum_ratio;
          Alcotest.test_case "group labels" `Quick test_group_labels;
        ] );
      ( "contact-graph",
        [
          Alcotest.test_case "clip bounds every degree" `Quick test_clip_bounds_degrees;
          Alcotest.test_case "clip keeps in-bound graphs" `Quick test_clip_identity_within_bound;
          Alcotest.test_case "clip ignores edge order" `Quick test_clip_ignores_edge_order;
          Alcotest.test_case "of_edges rejects malformed input" `Quick test_of_edges_rejects;
          Alcotest.test_case "spanning parents are upstream" `Quick test_spanning_parents_upstream;
        ] );
      ( "negative-paths",
        [
          Alcotest.test_case "malformed HISTO/GSUM typed" `Quick
            test_negative_malformed_histo_gsum;
          Alcotest.test_case "infeasible neigh(k) typed" `Quick
            test_negative_deep_neigh_infeasible;
          Alcotest.test_case "budget exhaustion typed" `Quick
            test_negative_budget_exhaustion_typed;
        ] );
    ]
