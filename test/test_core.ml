(* Tests for the plaintext oracle (the reference semantics, cross-checked
   against a flooded evaluation of §4.4's schedule) and mycelium_core
   (committee lifecycle and the end-to-end encrypted query pipeline,
   checked bin-for-bin against the plaintext oracle). *)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Schema = Mycelium_graph.Schema
module Epidemic = Mycelium_graph.Epidemic
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Corpus = Mycelium_query.Corpus
module Ast = Mycelium_query.Ast
module Params = Mycelium_bgv.Params
module Bgv = Mycelium_bgv.Bgv
module Rns = Mycelium_math.Rns
module Committee = Mycelium_core.Committee
module Runtime = Mycelium_core.Runtime
module Contribution = Mycelium_core.Contribution
module Sim = Mycelium_mixnet.Sim
module Dp = Mycelium_dp.Dp
module Elgamal = Mycelium_crypto.Elgamal
module Aead = Mycelium_crypto.Aead
module Obs = Mycelium_obs.Obs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_graph ?(n = 24) ?(d = 4) ?(seed = 4242L) () =
  let rng = Rng.create seed in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = n; degree_bound = d; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let err_to_string = function
  | Runtime.Parse_error m -> "parse: " ^ m
  | Runtime.Analysis_error m -> "analysis: " ^ m
  | Runtime.Infeasible m -> "infeasible: " ^ m
  | Runtime.Budget_exhausted r -> Printf.sprintf "budget exhausted (%.2f left)" r
  | Runtime.Invalid_epsilon e -> Printf.sprintf "invalid epsilon %g" e
  | Runtime.Pipeline_error m -> "pipeline: " ^ m

(* ------------------------------------------------------------------ *)
(* Flooded evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* The bins an origin's per-group (sum, count) accumulators land in:
   group-major, then value, then count, each clamped to its slots. *)
let pack info ~self ~sums ~counts =
  let l = info.Analysis.layout in
  let count_stride = l.Analysis.count_slots in
  let group_stride = l.Analysis.count_slots * l.Analysis.value_slots in
  let bin g i =
    (g * group_stride)
    + (min sums.(i) (l.Analysis.value_slots - 1) * count_stride)
    + min counts.(i) (l.Analysis.count_slots - 1)
  in
  match info.Analysis.group_kind with
  | Analysis.Group_none | Analysis.Group_self -> [ bin (Semantics.origin_group info self) 0 ]
  | Analysis.Group_edge | Analysis.Group_cross _ ->
    List.init l.Analysis.group_count (fun g -> bin g g)

(* Phase 1 of the §4.4 schedule: k flooding rounds from every origin
   at once, carrying (origin id, origin data, first edge) outward.
   meta.(v) maps each origin that reached v to (distance, first_edge,
   origin_data); upstream.(v) maps it to the neighbor v first heard it
   from. *)
let flood graph ~k origins =
  let n = Cg.population graph in
  let meta = Array.init n (fun _ -> Hashtbl.create 8) in
  let upstream = Array.init n (fun _ -> Hashtbl.create 8) in
  let frontier = Array.make n [] in
  List.iter
    (fun o ->
      Hashtbl.replace meta.(o) o (0, None, Cg.vertex graph o);
      frontier.(o) <- [ o ])
    origins;
  for dist = 1 to k do
    let next = Array.make n [] in
    for v = 0 to n - 1 do
      List.iter
        (fun o ->
          let _, first_edge, odata = Hashtbl.find meta.(v) o in
          List.iter
            (fun (u, _) ->
              if not (Hashtbl.mem meta.(u) o) then begin
                (* The first receiver records the edge it shares with
                   the origin; everyone further copies it along. *)
                let fe =
                  match first_edge with Some e -> Some e | None -> Cg.edge graph u o
                in
                Hashtbl.replace meta.(u) o (dist, fe, odata);
                Hashtbl.replace upstream.(u) o v;
                next.(u) <- o :: next.(u)
              end)
            (Cg.neighbors graph v))
        frontier.(v)
    done;
    Array.blit next 0 frontier 0 n
  done;
  (meta, upstream)

(* Flooded evaluation: the §4.4 schedule made explicit, an oracle for
   the direct evaluation of Semantics. Rounds 1..k flood (see
   [flood]); rounds k+1..2k fold the per-group (sum, count) partials
   back up the BFS tree; the origin packs the result into bin indices,
   derived here from the public layout alone. This mirrors what the
   encrypted engine does, with plaintext integers in place of
   ciphertexts. *)
let run_flooded info graph =
  let k = info.Analysis.query.Ast.hops in
  let groups = info.Analysis.layout.Analysis.group_count in
  let ratio = Semantics.is_ratio info in
  let bins = Array.make info.Analysis.layout.Analysis.total_bins 0 in
  let n = Cg.population graph in
  let origins =
    List.filter (fun o -> Semantics.origin_gate info (Cg.vertex graph o)) (List.init n Fun.id)
  in
  let meta, upstream = flood graph ~k origins in
  (* Every reached vertex evaluates its own row for every origin. *)
  let partials = Array.init n (fun _ -> Hashtbl.create 8) in
  for v = 0 to n - 1 do
    (* lint: allow determinism — per-origin rows write disjoint keys; int
       sums commute, so iteration order cannot affect the result *)
    Hashtbl.iter
      (fun o (_, first_edge, odata) ->
        let sums = Array.make groups 0 and counts = Array.make groups 0 in
        let edge = if v = o then None else first_edge in
        let ctx = { Semantics.self = odata; dest = Cg.vertex graph v; edge } in
        (match Semantics.accumulation_group info ctx with
        | Some g when g >= 0 && g < groups ->
          sums.(g) <- sums.(g) + Semantics.row_value info ctx;
          if ratio && Semantics.row_passes info ctx then counts.(g) <- counts.(g) + 1
        | Some _ | None -> ());
        Hashtbl.replace partials.(v) o (sums, counts))
      meta.(v)
  done;
  (* Phase 2: k aggregation rounds, deepest level first. *)
  for dist = k downto 1 do
    for v = 0 to n - 1 do
      (* lint: allow determinism — each origin accumulates into its own
         parent entry; integer addition commutes across iteration order *)
      Hashtbl.iter
        (fun o (d, _, _) ->
          if d = dist then
            match Hashtbl.find_opt upstream.(v) o with
            | Some parent ->
              let my_sums, my_counts = Hashtbl.find partials.(v) o in
              let p_sums, p_counts = Hashtbl.find partials.(parent) o in
              Array.iteri (fun g s -> p_sums.(g) <- p_sums.(g) + s) my_sums;
              Array.iteri (fun g c -> p_counts.(g) <- p_counts.(g) + c) my_counts
            | None -> ())
        meta.(v)
    done
  done;
  (* Final processing at each origin. *)
  List.iter
    (fun o ->
      let sums, counts = Hashtbl.find partials.(o) o in
      List.iter
        (fun e -> bins.(e) <- bins.(e) + 1)
        (pack info ~self:(Cg.vertex graph o) ~sums ~counts))
    origins;
  (bins, 2 * k)

(* ------------------------------------------------------------------ *)
(* Baseline engine                                                     *)
(* ------------------------------------------------------------------ *)

let test_flooded_matches_direct () =
  let g = small_graph () in
  List.iter
    (fun id ->
      let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find id).Corpus.query in
      let direct = Semantics.global_histogram info g in
      let flooded, supersteps = run_flooded info g in
      checkb (id ^ " flooded = direct") true (direct = flooded);
      checki (id ^ " 2k supersteps") (2 * info.Analysis.query.Ast.hops) supersteps)
    [ "Q1"; "Q2"; "Q4"; "Q5"; "Q6"; "Q7"; "Q8"; "Q9"; "Q10" ]

let test_baseline_q1_counts () =
  (* Sanity: Q1 bins sum to the number of infected origins. *)
  let g = small_graph () in
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q1").Corpus.query in
  let bins = Semantics.global_histogram info g in
  let infected =
    List.length
      (List.filter (fun i -> (Cg.vertex g i).Schema.infected) (List.init (Cg.population g) Fun.id))
  in
  checki "one contribution per infected origin" infected (Array.fold_left ( + ) 0 bins)

let test_flood_reaches_k_hop_ball () =
  (* The flood is a synchronous BFS: after k rounds an origin has
     reached exactly its k-hop ball ([Cg.k_hop]) at BFS distance, each
     vertex through a neighbor one hop closer. *)
  let g = small_graph () in
  let n = Cg.population g in
  List.iter
    (fun k ->
      let meta, upstream = flood g ~k (List.init n Fun.id) in
      for o = 0 to n - 1 do
        let dist v = match Hashtbl.find_opt meta.(v) o with Some (d, _, _) -> Some d | None -> None in
        let reached =
          List.filter_map
            (fun v -> if v = o then None else Option.map (fun d -> (v, d)) (dist v))
            (List.init n Fun.id)
        in
        checkb (Printf.sprintf "origin %d, k = %d: the k-hop ball" o k) true
          (reached = List.sort compare (Cg.k_hop g o ~k));
        List.iter
          (fun (v, d) ->
            let p = Hashtbl.find upstream.(v) o in
            checkb "upstream is a neighbor" true (Cg.edge g v p <> None);
            checkb "upstream is one hop closer" true (dist p = Some (d - 1)))
          reached
      done)
    [ 1; 2; 3 ]

let test_baseline_known_answers () =
  (* Hand-computed answers on a four-vertex star: center 0 (infected,
     age 25) with leaves 1 (infected, 27, household), 2 (healthy, 35,
     household) and 3 (infected, 65, subway). *)
  let person infected age =
    { Schema.infected; t_inf = (if infected then Some 3 else None); age; household = age }
  in
  let contact location =
    { Schema.duration_min = 30; contacts = 1; last_contact = 1; location; setting = Schema.Family }
  in
  let g =
    Cg.of_edges ~degree_bound:4
      ~vertices:[| person true 25; person true 27; person false 35; person true 65 |]
      ~edges:
        [ (0, 1, contact Schema.Household); (0, 2, contact Schema.Household);
          (0, 3, contact Schema.Subway) ]
      ()
  in
  let run id =
    let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find id).Corpus.query in
    Semantics.decode info (Array.map float_of_int (Semantics.global_histogram info g))
  in
  (* Q5: one origin per (decade, rows = degree + 1). *)
  (match run "Q5" with
  | Semantics.Histogram groups ->
    let count label bin =
      match Array.find_opt (fun (l, _) -> String.equal l label) groups with
      | Some (_, bins) -> int_of_float bins.(bin)
      | None -> Alcotest.failf "no group %s" label
    in
    checki "center: age 20-29, four rows" 1 (count "age 20-29" 4);
    checki "leaf 1: age 20-29, two rows" 1 (count "age 20-29" 2);
    checki "leaf 2: age 30-39, two rows" 1 (count "age 30-39" 2);
    checki "leaf 3: age 60-69, two rows" 1 (count "age 60-69" 2);
    checki "four origins in all" 4
      (int_of_float
         (Array.fold_left (fun acc (_, bins) -> acc +. Array.fold_left ( +. ) 0. bins) 0. groups))
  | Semantics.Sums _ -> Alcotest.fail "Q5 is a histogram");
  (* Q8: per infected origin, infected contacts over contacts, split by
     household. The center scores 1/2 (household) and 1/1 (subway);
     leaf 1 scores 1/1 (household), leaf 3 1/1 (subway). *)
  match run "Q8" with
  | Semantics.Sums groups ->
    checkb "household 1/2 + 1" true (Array.mem ("household", 1.5) groups);
    checkb "non-household 1 + 1" true (Array.mem ("non-household", 2.0) groups)
  | Semantics.Histogram _ -> Alcotest.fail "Q8 is a GSUM"

(* ------------------------------------------------------------------ *)
(* Committee                                                           *)
(* ------------------------------------------------------------------ *)

let fast_params = Params.test_small

let test_committee_lifecycle () =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 1L in
  let genesis, pk, _relin, _srs =
    Committee.genesis ctx rng ~size:7 ~threshold:3 ~relin_degree:2
  in
  checki "genesis generation" 0 (Committee.generation genesis);
  checkb "genesis members are placeholders" true
    (Array.for_all (fun m -> m = -1) (Committee.members genesis));
  let c1 = Committee.rotate genesis rng ~population:100 in
  checki "generation 1" 1 (Committee.generation c1);
  checkb "members drawn from population" true
    (Array.for_all (fun m -> m >= 0 && m < 100) (Committee.members c1));
  (* The rotated committee can still decrypt. *)
  let ct = Bgv.encrypt_value ctx rng pk 9 in
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  match Committee.decrypt_and_release c1 rng ctx ~info ~epsilon:Float.infinity ct with
  | Ok release ->
    (* x^9 under Q5's layout: bin 9 of the flat space. *)
    checkb "bin 9 is 1" true (release.Committee.noisy_bins.(9) = 1.)
  | Error e -> Alcotest.fail e

let test_committee_many_rotations () =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 2L in
  let genesis, pk, _, _ = Committee.genesis ctx rng ~size:5 ~threshold:2 ~relin_degree:2 in
  let c = ref genesis in
  for _ = 1 to 5 do
    c := Committee.rotate !c rng ~population:50
  done;
  checki "generation 5" 5 (Committee.generation !c);
  let sk = Committee.reconstruct_for_tests !c ctx in
  let ct = Bgv.encrypt_value ctx rng pk 3 in
  checkb "key survives five hand-offs" true
    (Mycelium_bgv.Plaintext.coeff (Bgv.decrypt ctx sk ct) 3 = 1)

let test_committee_liveness_retry () =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 4L in
  let genesis, pk, _, _ = Committee.genesis ctx rng ~size:10 ~threshold:4 ~relin_degree:2 in
  let c = Committee.rotate genesis rng ~population:100 in
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  let ct = Bgv.encrypt_value ctx rng pk 7 in
  (* Heavy churn: decryption still succeeds, via retries. *)
  (match
     Committee.decrypt_and_release ~churn:0.6 ~max_attempts:200 c rng ctx ~info
       ~epsilon:Float.infinity ct
   with
  | Ok r ->
    checkb "eventually decrypts" true (r.Committee.noisy_bins.(7) = 1.);
    checkb "took at least one attempt" true (r.Committee.attempts >= 1)
  | Error e -> Alcotest.fail e);
  (* Total churn: liveness failure reported. *)
  match
    Committee.decrypt_and_release ~churn:1.0 ~max_attempts:3 c rng ctx ~info ~epsilon:1.0 ct
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dead committee decrypted"

let test_committee_rejects_high_degree () =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 3L in
  let genesis, pk, _, _ = Committee.genesis ctx rng ~size:5 ~threshold:2 ~relin_degree:2 in
  let c = Committee.rotate genesis rng ~population:50 in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  match Committee.decrypt_and_release c rng ctx ~info ~epsilon:1.0 prod with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "degree-2 ciphertext accepted"

(* ------------------------------------------------------------------ *)
(* Contribution                                                        *)
(* ------------------------------------------------------------------ *)

let contribution_fixture =
  lazy
    (let ctx = Bgv.make_ctx fast_params in
     let rng = Rng.create 10L in
     let _, pk = Bgv.keygen ctx rng in
     let srs = Mycelium_zkp.Zkp.setup rng in
     (ctx, rng, pk, srs))

let test_contribution_sequence_lengths () =
  let ctx, rng, pk, srs = Lazy.force contribution_fixture in
  let dest = { Schema.infected = true; t_inf = Some 5; age = 30; household = 1 } in
  List.iter
    (fun (id, expected) ->
      let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find id).Corpus.query in
      checki (id ^ " sequence") expected (Contribution.sequence_length info);
      let c = Contribution.build srs ctx rng pk info ~dest ~edge:None in
      checki (id ^ " ciphertext count") expected (Array.length c.Contribution.ciphertexts);
      checkb (id ^ " verifies") true (Contribution.verify srs ctx info c))
    [ ("Q1", 1); ("Q3", 14); ("Q9", 10) ]

let test_contribution_malicious_rejected () =
  let ctx, rng, pk, srs = Lazy.force contribution_fixture in
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q5").Corpus.query in
  let bad = Contribution.build_malicious ctx rng pk info ~exponent:1 ~coeff:100 in
  checkb "forged proofs rejected" false (Contribution.verify srs ctx info bad)

let test_contribution_wire_roundtrip () =
  let ctx, rng, pk, srs = Lazy.force contribution_fixture in
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q5").Corpus.query in
  let dest = { Schema.infected = false; t_inf = None; age = 61; household = 2 } in
  let c = Contribution.build srs ctx rng pk info ~dest ~edge:None in
  match Contribution.of_bytes ctx (Contribution.to_bytes c) with
  | Some c' -> checkb "roundtrip verifies" true (Contribution.verify srs ctx info c')
  | None -> Alcotest.fail "wire roundtrip failed"

(* wire_size predicts to_bytes' length from the shape alone; the
   ciphertext part comes from Bgv.ciphertext_bytes. *)
let test_contribution_wire_size () =
  List.iter
    (fun params ->
      let ctx = Bgv.make_ctx params in
      let rng = Rng.create 11L in
      let _, pk = Bgv.keygen ctx rng in
      let srs = Mycelium_zkp.Zkp.setup rng in
      let dest = { Schema.infected = true; t_inf = Some 3; age = 40; household = 1 } in
      List.iter
        (fun (id, slots) ->
          let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find id).Corpus.query in
          checki (id ^ " sequence") slots (Contribution.sequence_length info);
          let c = Contribution.build srs ctx rng pk info ~dest ~edge:None in
          checki
            (Printf.sprintf "%s at N = %d" id params.Params.degree)
            (Bytes.length (Contribution.to_bytes c))
            (Contribution.wire_size ctx info))
        [ ("Q2", 1); ("Q3", 14) ])
    [ Params.test_small; Params.test_medium ]

(* Structure-aware mutants of the two decoders that face the wire:
   well-framed inputs with one defect each.  Every one decodes to None,
   within a fixed time. *)
let test_decoder_mutants () =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 13L in
  let _, pk = Bgv.keygen ctx rng in
  let srs = Mycelium_zkp.Zkp.setup rng in
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q5").Corpus.query in
  let dest = { Schema.infected = true; t_inf = Some 2; age = 35; household = 1 } in
  let c = Contribution.build srs ctx rng pk info ~dest ~edge:None in
  let basis = Bgv.basis ctx in
  let levels = Rns.level_count basis and n = Rns.degree basis and primes = Rns.primes basis in
  let with_field b off v =
    let b = Bytes.copy b in
    Bytes.set_int32_le b off (Int32.of_int v);
    b
  in
  let refused what decode mutant =
    let t0 = Sys.time () in
    let r = decode mutant in
    checkb (what ^ ": refused") true (Option.is_none r);
    checkb (what ^ ": within a second") true (Sys.time () -. t0 < 1.)
  in
  (* A ciphertext's wire form is 4-byte little-endian fields: the
     component count, then per component its representation tag and
     row count, and per row its length and its n residues. *)
  let ct = Bgv.serialize c.Contribution.ciphertexts.(0) in
  let comp i = 4 + (i * (8 + (levels * (4 + (4 * n))))) in
  let row i j = comp i + 8 + (j * (4 + (4 * n))) in
  let residue i j k = row i j + 4 + (4 * k) in
  checkb "unmutated ciphertext decodes" true (Option.is_some (Bgv.deserialize ctx ct));
  let ct_mutants =
    [
      ("residue equal to its prime", with_field ct (residue 0 0 0) primes.(0));
      ( "residue above its prime",
        with_field ct (residue 1 (levels - 1) (n - 1)) (primes.(levels - 1) + 1) );
      ("residue 2^31 - 1", with_field ct (residue 0 1 5) 0x7FFFFFFF);
      ("negative residue", with_field ct (residue 1 0 7) (-1));
      ("representation tag 2", with_field ct (comp 1) 2);
      ("one row short", with_field ct (comp 0 + 4) (levels - 1));
      ("one row over", with_field ct (comp 1 + 4) (levels + 1));
      ("row one residue short", with_field ct (row 0 0) (n - 1));
      ("row one residue long", with_field ct (row 1 (levels - 1)) (n + 1));
      ("0 components", with_field ct 0 0);
      ("65 components", with_field ct 0 65);
      ("1 component of 2", with_field ct 0 1);
      ("3 components of 2", with_field ct 0 3);
      ("truncated by a byte", Bytes.sub ct 0 (Bytes.length ct - 1));
      ("truncated by a field", Bytes.sub ct 0 (Bytes.length ct - 4));
      ("a trailing byte", Bytes.cat ct (Bytes.make 1 '\x00'));
      ("a trailing field", Bytes.cat ct (Bytes.make 4 '\x00'));
    ]
  in
  List.iter (fun (what, m) -> refused ("ciphertext, " ^ what) (Bgv.deserialize ctx) m) ct_mutants;
  (* A contribution is a count, then each ciphertext and each proof
     framed by a 4-byte length. *)
  let frame ~count parts =
    let b = Buffer.create 4096 in
    let add32 v =
      let h = Bytes.create 4 in
      Bytes.set_int32_le h 0 (Int32.of_int v);
      Buffer.add_bytes b h
    in
    add32 count;
    List.iter
      (fun p ->
        add32 (Bytes.length p);
        Buffer.add_bytes b p)
      parts;
    Buffer.to_bytes b
  in
  let cts = Array.to_list (Array.map Bgv.serialize c.Contribution.ciphertexts) in
  let proofs = Array.to_list (Array.map Mycelium_zkp.Zkp.proof_to_bytes c.Contribution.proofs) in
  let k = List.length cts in
  let wire = Contribution.to_bytes c in
  checkb "framing as to_bytes" true (Bytes.equal wire (frame ~count:k (cts @ proofs)));
  checkb "unmutated contribution decodes" true (Option.is_some (Contribution.of_bytes ctx wire));
  let first_proof = 4 + List.fold_left (fun acc ct -> acc + 4 + Bytes.length ct) 0 cts in
  let proof = List.hd proofs in
  let contribution_mutants =
    List.map
      (fun (what, m) -> ("ciphertext " ^ what, frame ~count:k ((m :: List.tl cts) @ proofs)))
      ct_mutants
    @ [
        ("count 0", with_field wire 0 0);
        ("count 65", with_field wire 0 65);
        ("count one over", with_field wire 0 (k + 1));
        ("ciphertext frame a byte over", with_field wire 4 (Bytes.length (List.hd cts) + 1));
        ("ciphertext frame a byte short", with_field wire 4 (Bytes.length (List.hd cts) - 1));
        ("frame length past the end", with_field wire 4 0x7FFFFFFF);
        ("negative frame length", with_field wire 4 (-1));
        ("proof frame past the end", with_field wire first_proof 0x7FFFFFFF);
        ( "63-byte proof",
          frame ~count:k (cts @ (Bytes.sub proof 0 63 :: List.tl proofs)) );
        ( "65-byte proof",
          frame ~count:k (cts @ (Bytes.cat proof (Bytes.make 1 '\x00') :: List.tl proofs)) );
        ("truncated by a byte", Bytes.sub wire 0 (Bytes.length wire - 1));
        ("truncated inside a header", Bytes.sub wire 0 2);
        ("a trailing byte", Bytes.cat wire (Bytes.make 1 '\x00'));
        ("a trailing frame", Bytes.cat wire (frame ~count:0 [ proof ]));
      ]
  in
  List.iter
    (fun (what, m) -> refused ("contribution, " ^ what) (Contribution.of_bytes ctx) m)
    contribution_mutants

(* A seeded mutation fuzz over every decoder of untrusted bytes: from
   one valid encoding each, mutants with one to three defects — bit
   flips, byte overwrites, truncations, extensions, and 4-byte fields
   at an aligned offset set to 0, -1 or 2^31 - 1 (the length fields of
   the wire formats sit at such offsets).  Every call returns its
   typed result without raising, and the AEAD refuses every mutant
   that differs from the sealed bytes.  A failure names the seed, the
   decoder and the mutant's index; each decoder's mutants come from
   their own stream of the seed. *)
let test_decoder_fuzz () =
  let seed = 0x5eed_f022L and per_decoder = 2000 in
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create 17L in
  let _, pk = Bgv.keygen ctx rng in
  let srs = Mycelium_zkp.Zkp.setup rng in
  let info = Analysis.analyze_exn ~degree_bound:4 (Corpus.find "Q5").Corpus.query in
  let dest = { Schema.infected = true; t_inf = Some 2; age = 35; household = 1 } in
  let c = Contribution.build srs ctx rng pk info ~dest ~edge:None in
  let pub, priv = Elgamal.generate rng in
  let key = Rng.bytes rng 32 and msg = Bytes.of_string "a mailbox's onion layer" in
  let sealed = Aead.seal ~key ~round:3 msg in
  let ledger_row =
    {|{"schema":"mycelium-ledger/1","query":1,"name":"Q5","hops":1,"status":"ok","charged":true,"epsilon":0.5,"degree_bound":4,"accounting":"basic","stages":{"query.gather":0.0123,"query.aggregate":0.0456,"summation_tree.build":0.0078,"summation_tree.audit":0.0004,"bgv.relinearize":0.0021,"committee.decrypt_batch":0.0009,"committee.rotate":0.0011},"sensitivity":22.0,"clip":null,"influence_bound":11,"committee":{"size":10,"threshold":4,"shares_used":5,"generation":2},"budget_total":10.0,"budget_spent":0.5,"budget_remaining":9.5}|}
  in
  let always f b = ignore (f b); true in
  let decoders =
    [
      ("Bgv.deserialize", Bgv.serialize c.Contribution.ciphertexts.(0), always (Bgv.deserialize ctx));
      ("Contribution.of_bytes", Contribution.to_bytes c, always (Contribution.of_bytes ctx));
      ( "Zkp.proof_of_bytes",
        Mycelium_zkp.Zkp.proof_to_bytes c.Contribution.proofs.(0),
        always Mycelium_zkp.Zkp.proof_of_bytes );
      ("Elgamal.pub_of_bytes", Elgamal.pub_to_bytes pub, always Elgamal.pub_of_bytes);
      ("Elgamal.decrypt", Elgamal.encrypt rng pub msg, always (Elgamal.decrypt priv));
      ( "Aead.open_",
        sealed,
        fun b -> Bytes.equal b sealed || Option.is_none (Aead.open_ ~key ~round:3 b) );
      ("Json.parse", Bytes.of_string ledger_row, always (fun b -> Obs.Json.parse (Bytes.to_string b)));
      ( "Parser.parse",
        Bytes.of_string (Corpus.find "Q5").Corpus.sql,
        always (fun b -> Mycelium_query.Parser.parse (Bytes.to_string b)) );
    ]
  in
  let mutate rng b =
    let n = Bytes.length b in
    match Rng.int rng 5 with
    | 0 when n > 0 ->
      let b = Bytes.copy b and i = Rng.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      b
    | 1 when n > 0 ->
      let b = Bytes.copy b in
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
      b
    | 2 when n > 0 -> Bytes.sub b 0 (Rng.int rng n)
    | 3 -> Bytes.cat b (Rng.bytes rng (1 + Rng.int rng 16))
    | 4 when n >= 4 ->
      let b = Bytes.copy b in
      let v = [| 0l; -1l; Int32.max_int |].(Rng.int rng 3) in
      Bytes.set_int32_le b (4 * Rng.int rng (n / 4)) v;
      b
    | _ -> Bytes.cat b (Bytes.make 1 '\x00')
  in
  List.iteri
    (fun d (name, valid, decode) ->
      checkb (name ^ ": the valid encoding decodes") true (decode valid);
      let rng = Rng.create (Rng.mix64 seed (Int64.of_int d)) in
      for i = 0 to per_decoder - 1 do
        let rec defects k b = if k = 0 then b else defects (k - 1) (mutate rng b) in
        let mutant = defects (1 + Rng.int rng 3) valid in
        match decode mutant with
        | true -> ()
        | false -> Alcotest.failf "seed %Ld, %s, mutant %d: accepted" seed name i
        | exception e ->
          Alcotest.failf "seed %Ld, %s, mutant %d: raised %s" seed name i (Printexc.to_string e)
      done)
    decoders

(* ------------------------------------------------------------------ *)
(* Summation tree                                                      *)
(* ------------------------------------------------------------------ *)

module Summation_tree = Mycelium_core.Summation_tree

let summation_fixture n =
  let ctx = Bgv.make_ctx fast_params in
  let rng = Rng.create (Int64.of_int (1000 + n)) in
  let sk, pk = Bgv.keygen ctx rng in
  let leaves = Array.init n (fun i -> Bgv.encrypt_value ctx rng pk (i mod 7)) in
  (ctx, sk, leaves)

(* The root commitment of a fixed tree, recorded before the tree
   streamed its sums into SHA-256 instead of hashing serializations. *)
let test_summation_tree_root_pinned () =
  let _, _, leaves = summation_fixture 5 in
  let tree = Summation_tree.build leaves in
  Alcotest.(check string)
    "root hash" "5cde8153ed46502e6dffcbcad8519b74c093faec31740b2a63c4592db3db3219"
    (Testkit.Hex.encode (Summation_tree.root_hash tree))

let test_summation_tree_sums_correctly () =
  List.iter
    (fun n ->
      let ctx, sk, leaves = summation_fixture n in
      let tree = Summation_tree.build leaves in
      checki "leaf count" n (Summation_tree.leaf_count tree);
      let expected =
        Array.fold_left (fun acc ct -> Bgv.add acc ct) leaves.(0) (Array.sub leaves 1 (n - 1))
      in
      checkb "root sum decrypts like the fold" true
        (Mycelium_bgv.Plaintext.equal
           (Bgv.decrypt ctx sk (Summation_tree.root_sum tree))
           (Bgv.decrypt ctx sk expected)))
    [ 1; 2; 3; 5; 8; 13 ]

let test_summation_tree_audits_pass () =
  List.iter
    (fun n ->
      let _, _, leaves = summation_fixture n in
      let tree = Summation_tree.build leaves in
      for i = 0 to n - 1 do
        checkb
          (Printf.sprintf "n=%d leaf %d" n i)
          true
          (Summation_tree.verify_audit leaves.(i)
             ~root_hash:(Summation_tree.root_hash tree)
             ~root_sum:(Summation_tree.root_sum tree)
             ~leaf_count:n (Summation_tree.audit tree i))
      done)
    [ 1; 2; 5; 9 ]

let test_summation_tree_detects_cheating () =
  let ctx, _, leaves = summation_fixture 6 in
  let rng = Rng.create 31L in
  let _, pk = Bgv.keygen ctx rng in
  (* Dropped contribution: the aggregator built a tree without leaf 3
     and answers device 3's audit with a path from its own tree. *)
  let without = Array.append (Array.sub leaves 0 3) (Array.sub leaves 4 2) in
  let forged = Summation_tree.build without in
  checkb "dropped contribution detected" false
    (Summation_tree.verify_audit leaves.(3)
       ~root_hash:(Summation_tree.root_hash forged)
       ~root_sum:(Summation_tree.root_sum forged)
       ~leaf_count:5 (Summation_tree.audit forged 3));
  (* Substituted contribution at the device's own slot. *)
  let swapped = Array.copy leaves in
  swapped.(3) <- Bgv.encrypt_value ctx rng pk 6;
  let forged2 = Summation_tree.build swapped in
  checkb "substituted contribution detected" false
    (Summation_tree.verify_audit leaves.(3)
       ~root_hash:(Summation_tree.root_hash forged2)
       ~root_sum:(Summation_tree.root_sum forged2)
       ~leaf_count:6 (Summation_tree.audit forged2 3));
  (* Duplicated contribution (included twice): another device's audit
     against the duplicated tree still verifies, but the device whose
     slot was stolen detects it. *)
  let duped = Array.copy leaves in
  duped.(4) <- leaves.(3);
  let forged3 = Summation_tree.build duped in
  checkb "stolen slot detected" false
    (Summation_tree.verify_audit leaves.(4)
       ~root_hash:(Summation_tree.root_hash forged3)
       ~root_sum:(Summation_tree.root_sum forged3)
       ~leaf_count:6 (Summation_tree.audit forged3 4))

let test_summation_tree_wrong_root_sum () =
  (* The aggregator cannot announce a different total: the audit binds
     the running sum to the announced root. *)
  let ctx, _, leaves = summation_fixture 4 in
  let rng = Rng.create 33L in
  let _, pk = Bgv.keygen ctx rng in
  let tree = Summation_tree.build leaves in
  checkb "forged total rejected" false
    (Summation_tree.verify_audit leaves.(0)
       ~root_hash:(Summation_tree.root_hash tree)
       ~root_sum:(Bgv.encrypt_value ctx rng pk 0)
       ~leaf_count:4 (Summation_tree.audit tree 0))

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let e2e_config =
  { Runtime.default_config with Runtime.params = fast_params; degree_bound = 4 }

let e2e_system = lazy (Runtime.init e2e_config (small_graph ()))

let run_exact sys id =
  match Runtime.run_query ~epsilon:Float.infinity sys (Corpus.find id).Corpus.sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s failed: %s" id (err_to_string e)

let check_matches_oracle sys id =
  let r = run_exact sys id in
  let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
  checkb (id ^ " = plaintext oracle") true
    (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact);
  checki (id ^ " no discards") 0 r.Runtime.discarded_contributions

let test_e2e_simple_queries () =
  let sys = Lazy.force e2e_system in
  List.iter (check_matches_oracle sys) [ "Q2"; "Q4"; "Q5" ]

let test_e2e_cross_column_queries () =
  let sys = Lazy.force e2e_system in
  List.iter (check_matches_oracle sys) [ "Q3"; "Q9" ]

let test_e2e_grouped_queries () =
  let sys = Lazy.force e2e_system in
  List.iter (check_matches_oracle sys) [ "Q6"; "Q7"; "Q8"; "Q10" ]

let test_e2e_two_hop () =
  (* Q1 on a tiny graph with parameters deep enough for d^2-ish
     products, on the smallest key admission allows: at d = 2 an
     origin's product has degree d^2 + 1 = 5, and one of higher degree
     would make the aggregator's relinearization raise. *)
  let g = small_graph ~n:12 ~d:2 ~seed:99L () in
  let sys =
    Runtime.init
      {
        e2e_config with
        Runtime.params = Params.test_medium;
        degree_bound = 2;
        relin_degree = Some 5;
      }
      g
  in
  let r = run_exact sys "Q1" in
  let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
  checkb "Q1 = oracle" true
    (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact)

(* Admission bounds an origin's product at degree multiplications + 1
   (one row per vertex of its ball), against the realized degree of
   every corpus shape test_medium admits at d = 2: the densest origin's
   1-hop aggregate here, Q1 through the pipeline on a key of exactly
   its bound in "two-hop Q1".  The 1-hop key (degree 3) refuses Q1. *)
let test_e2e_aggregate_degree_within_key () =
  let g = small_graph ~n:12 ~d:2 ~seed:99L () in
  let system key =
    Runtime.init
      { e2e_config with Runtime.params = Params.test_medium; degree_bound = 2; relin_degree = Some key }
      g
  in
  let admitted =
    let sys = system 5 in
    List.filter_map
      (fun (c : Corpus.entry) ->
        match Runtime.validate_query sys c.Corpus.query with
        | Ok info -> Some (c.Corpus.id, info)
        | Error _ -> None)
      Corpus.all
  in
  let bound (_, info) = info.Analysis.multiplications + 1 in
  let one_hop, two_hop = List.partition (fun (id, _) -> not (String.equal id "Q1")) admitted in
  checki "Q1 admitted" 1 (List.length two_hop);
  checki "Q1 at degree 5" 5 (bound (List.hd two_hop));
  checkb "1-hop shapes at degree 3" true (one_hop <> [] && List.for_all (fun m -> bound m = 3) one_hop);
  (match Runtime.validate_query (system 3) (Corpus.find "Q1").Corpus.query with
  | Error (Runtime.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (err_to_string e)
  | Ok _ -> Alcotest.fail "the degree-3 key admitted Q1");
  let ctx = Bgv.make_ctx Params.test_medium and rng = Rng.create 11L in
  let _, pk, _, srs = Committee.genesis ctx rng ~size:5 ~threshold:2 ~relin_degree:2 in
  let origin =
    List.fold_left
      (fun best v ->
        if List.length (Cg.neighbors g v) > List.length (Cg.neighbors g best) then v else best)
      0
      (List.init (Cg.population g) Fun.id)
  in
  let degrees =
    List.map
      (fun ((id, info) as m) ->
        let rows =
          List.map
            (fun (v, e) ->
              (Some e, Contribution.build srs ctx rng pk info ~dest:(Cg.vertex g v) ~edge:(Some e)))
            (Cg.neighbors g origin)
        in
        match Contribution.aggregate_origin srs ctx rng pk info ~self:(Cg.vertex g origin) ~rows with
        | Ok (ct, _) ->
          checkb (id ^ " within multiplications + 1") true (Bgv.degree ct <= bound m);
          Bgv.degree ct
        | Error e -> Alcotest.failf "%s: %s" id e)
      one_hop
  in
  checkb "the densest origin reaches the bound" true (List.mem 3 degrees)

let test_e2e_q1_infeasible_at_small_params () =
  (* §6.2's generality result at this parameter scale: the 2-hop query
     exceeds the multiplication budget. *)
  let sys = Lazy.force e2e_system in
  match Runtime.run_query ~epsilon:1.0 sys (Corpus.find "Q1").Corpus.sql with
  | Error (Runtime.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (err_to_string e)
  | Ok _ -> Alcotest.fail "Q1 should be infeasible at test_small"

let test_e2e_noise_present_at_finite_epsilon () =
  let sys = Runtime.init e2e_config (small_graph ~seed:5L ()) in
  match Runtime.run_query ~epsilon:0.5 sys (Corpus.find "Q5").Corpus.sql with
  | Ok r ->
    let exact = Array.map float_of_int (Runtime.exact_bins_for_tests sys r.Runtime.info) in
    checkb "noise applied" true (r.Runtime.noisy_bins <> exact);
    (* Noise is centered: the total mass should be within a loose bound
       of the truth. *)
    let sum a = Array.fold_left ( +. ) 0. a in
    let sens = r.Runtime.info.Analysis.sensitivity in
    let bins = float_of_int (Array.length exact) in
    checkb "mass in statistical range" true
      (Float.abs (sum r.Runtime.noisy_bins -. sum exact) < 20. *. sens /. 0.5 *. sqrt bins)
  | Error e -> Alcotest.fail (err_to_string e)

let test_e2e_budget_enforced () =
  let sys = Runtime.init { e2e_config with Runtime.epsilon_budget = 1.0 } (small_graph ~n:12 ~seed:6L ()) in
  (match Runtime.run_query ~epsilon:0.7 sys (Corpus.find "Q4").Corpus.sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (err_to_string e));
  match Runtime.run_query ~epsilon:0.7 sys (Corpus.find "Q4").Corpus.sql with
  | Error (Runtime.Budget_exhausted remaining) ->
    checkb "remaining reported" true (Float.abs (remaining -. 0.3) < 1e-9)
  | Error e -> Alcotest.failf "wrong error: %s" (err_to_string e)
  | Ok _ -> Alcotest.fail "over-budget query accepted"

(* The NaN probe through the single-query entry point: an epsilon that
   is not finite and positive (or infinity) comes back as a typed
   rejection before any charge, and the budget keeps refusing what it
   must. *)
let test_e2e_invalid_epsilon_rejected () =
  let sys = Runtime.init { e2e_config with Runtime.epsilon_budget = 1.0 } (small_graph ~n:12 ~seed:6L ()) in
  let run eps = Runtime.run_query ~epsilon:eps sys (Corpus.find "Q4").Corpus.sql in
  (match run 0.6 with Ok _ -> () | Error e -> Alcotest.fail (err_to_string e));
  (match run 0.6 with
  | Error (Runtime.Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (err_to_string e)
  | Ok _ -> Alcotest.fail "over-budget query accepted");
  List.iter
    (fun eps ->
      match run eps with
      | Error (Runtime.Invalid_epsilon _) -> ()
      | Error e -> Alcotest.failf "epsilon %g: wrong error: %s" eps (err_to_string e)
      | Ok _ -> Alcotest.failf "epsilon %g admitted" eps)
    [ Float.nan; 0.; -1.; Float.neg_infinity ];
  checkb "spent unchanged" true (Float.abs (Dp.budget_spent (Runtime.budget sys) -. 0.6) < 1e-9);
  for _ = 1 to 3 do
    match run 100. with
    | Error (Runtime.Budget_exhausted _) -> ()
    | Error e -> Alcotest.failf "epsilon 100: wrong error: %s" (err_to_string e)
    | Ok _ -> Alcotest.fail "epsilon 100 admitted"
  done

let test_e2e_committee_rotates_per_query () =
  let sys = Runtime.init e2e_config (small_graph ~n:12 ~seed:7L ()) in
  let g1 = (run_exact sys "Q4").Runtime.committee_generation in
  let g2 = (run_exact sys "Q4").Runtime.committee_generation in
  checki "rotated between queries" (g1 + 1) g2

let test_e2e_byzantine_contributions_discarded () =
  let g = small_graph ~n:20 ~seed:8L () in
  let sys = Runtime.init { e2e_config with Runtime.byzantine_fraction = 0.2 } g in
  let r = run_exact sys "Q5" in
  checkb "some contributions discarded" true (r.Runtime.discarded_contributions > 0);
  checkb "honest origins still included" true (r.Runtime.origins_included > 0);
  (* The released histogram never contains the Byzantine coefficient
     (200 per §4.6 attack attempt): values stay bounded by n. *)
  Array.iter
    (fun v -> checkb "no over-weighting" true (v <= float_of_int (Cg.population g)))
    r.Runtime.noisy_bins

let test_e2e_through_mixnet () =
  let g = small_graph ~n:16 ~d:4 ~seed:9L () in
  let mix_cfg =
    {
      Sim.default_config with
      Sim.hops = 2;
      replicas = 2;
      fraction = 0.4;
      fast_setup = true;
      verify_every = 0;
    }
  in
  let sys =
    Runtime.init { e2e_config with Runtime.route_through_mixnet = Some mix_cfg } g
  in
  let r = run_exact sys "Q5" in
  checki "nothing lost without churn" 0 r.Runtime.mixnet_losses;
  let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
  checkb "mixnet-routed result = oracle" true
    (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact)

(* The runtime's seed roots its simulator, so each seed ranks the hop
   slices by another beacon; every one routes every row. *)
let test_e2e_mixnet_seed_sweep () =
  let g = small_graph ~n:12 ~d:4 ~seed:11L () in
  let mix_cfg =
    {
      Sim.default_config with
      Sim.hops = 2;
      replicas = 2;
      fraction = 0.4;
      fast_setup = true;
      fast_keys = true;
      verify_every = 0;
    }
  in
  for seed = 1 to 5 do
    let sys =
      Runtime.init
        { e2e_config with Runtime.seed = Int64.of_int seed; route_through_mixnet = Some mix_cfg }
        g
    in
    let r = run_exact sys "Q5" in
    checki (Printf.sprintf "seed %d: nothing lost" seed) 0 r.Runtime.mixnet_losses;
    let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
    checkb (Printf.sprintf "seed %d: result = oracle" seed) true
      (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact)
  done

let test_e2e_mixnet_churn_degrades_gracefully () =
  let g = small_graph ~n:16 ~d:4 ~seed:10L () in
  let mix_cfg =
    {
      Sim.default_config with
      Sim.hops = 2;
      replicas = 1;
      fraction = 0.4;
      churn = 0.25;
      fast_setup = true;
      verify_every = 0;
    }
  in
  let sys =
    Runtime.init { e2e_config with Runtime.route_through_mixnet = Some mix_cfg } g
  in
  let r = run_exact sys "Q5" in
  checkb "some rows lost in transit" true (r.Runtime.mixnet_losses > 0);
  (* Missing inputs default to neutral values (§6.3): the query still
     completes and bins stay bounded. *)
  Array.iter
    (fun v -> checkb "bounded" true (v >= 0. && v <= float_of_int (Cg.population g)))
    r.Runtime.noisy_bins

let test_e2e_over_degree_graph_clipped () =
  (* A graph loaded from external data (outside [Contact_graph.generate])
     may exceed the runtime's degree bound: [Runtime.init] must clip it
     deterministically rather than fail, and in mixnet mode the
     per-device target lists must come out at exactly d entries. *)
  let n = 12 in
  let d = 3 in
  let rng = Rng.create 77L in
  let vertices =
    Array.init n (fun i ->
        {
          Schema.infected = i mod 2 = 0;
          t_inf = (if i mod 2 = 0 then Some (i mod 14) else None);
          age = 20 + (i * 7 mod 60);
          household = i / 3;
        })
  in
  let edge () =
    {
      Schema.duration_min = 30 + Rng.int rng 60;
      contacts = 1 + Rng.int rng 4;
      last_contact = Rng.int rng 14;
      location = Schema.Household;
      setting = Schema.Family;
    }
  in
  (* Star around vertex 0 (degree n-1 >> d) plus a path over the rest. *)
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (0, v, edge ()) :: !edges
  done;
  for v = 1 to n - 2 do
    edges := (v, v + 1, edge ()) :: !edges
  done;
  let g = Cg.of_edges ~degree_bound:d ~vertices ~edges:!edges () in
  checkb "fixture exceeds bound" true (Cg.max_degree g > d);
  let sys = Runtime.init { e2e_config with Runtime.degree_bound = d } g in
  checkb "runtime graph clipped" true (Cg.max_degree (Runtime.graph sys) <= d);
  let r = run_exact sys "Q5" in
  let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
  checkb "clipped result = oracle" true
    (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact);
  (* Same over-degree graph through the mixnet: the target lists handed
     to path setup are clipped and self-loop padded to exactly d, so
     setup accepts them and nothing is lost. *)
  let mix_cfg =
    {
      Sim.default_config with
      Sim.hops = 2;
      replicas = 2;
      fraction = 0.4;
      fast_setup = true;
      verify_every = 0;
    }
  in
  let sys2 =
    Runtime.init
      { e2e_config with Runtime.degree_bound = d; route_through_mixnet = Some mix_cfg }
      g
  in
  let r2 = run_exact sys2 "Q5" in
  checki "nothing lost" 0 r2.Runtime.mixnet_losses;
  let exact2 = Runtime.exact_bins_for_tests sys2 r2.Runtime.info in
  checkb "mixnet over-degree result = oracle" true
    (Array.for_all2 (fun a b -> int_of_float a = b) r2.Runtime.noisy_bins exact2)

(* Bring-up refuses a population smaller than the committee, naming
   both numbers; a population the size of the committee comes up. *)
let test_e2e_population_below_committee () =
  let config = { e2e_config with Runtime.committee_size = 10 } in
  Alcotest.check_raises "6 devices, 10 members"
    (Invalid_argument "Runtime.init: population 6 is smaller than the committee size 10")
    (fun () -> ignore (Runtime.init config (small_graph ~n:6 ())));
  ignore (Runtime.init config (small_graph ~n:10 ()))

(* An out-of-range fraction is refused by name before any key is
   generated: the Byzantine one by the runtime, the mixnet's by the
   simulator, which the runtime creates first. *)
let test_e2e_bad_fractions_refused () =
  let g = small_graph ~n:12 () in
  let refused msg config =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Runtime.init config g))
  in
  refused "Runtime.init: byzantine_fraction nan is outside [0, 1]"
    { e2e_config with Runtime.byzantine_fraction = Float.nan };
  refused "Runtime.init: byzantine_fraction 1.5 is outside [0, 1]"
    { e2e_config with Runtime.byzantine_fraction = 1.5 };
  refused "Sim.create: fraction 0.5 is outside (0, 1/3]"
    { e2e_config with
      Runtime.route_through_mixnet = Some { Sim.default_config with Sim.fraction = 0.5 } }

let test_e2e_parse_and_analysis_errors () =
  let sys = Lazy.force e2e_system in
  (match Runtime.run_query ~epsilon:1.0 sys "SELECT nonsense" with
  | Error (Runtime.Parse_error _) -> ()
  | _ -> Alcotest.fail "parse error expected");
  match Runtime.run_query ~epsilon:1.0 sys "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.inf OR dest.inf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unplaceable OR should fail"

let () =
  Alcotest.run "mycelium-core"
    [
      ( "baseline",
        [
          Alcotest.test_case "flooded = direct" `Quick test_flooded_matches_direct;
          Alcotest.test_case "Q1 mass" `Quick test_baseline_q1_counts;
          Alcotest.test_case "flood reaches the k-hop ball" `Quick test_flood_reaches_k_hop_ball;
          Alcotest.test_case "known answers on a star" `Quick test_baseline_known_answers;
        ] );
      ( "committee",
        [
          Alcotest.test_case "lifecycle" `Quick test_committee_lifecycle;
          Alcotest.test_case "many rotations" `Quick test_committee_many_rotations;
          Alcotest.test_case "liveness retry (§6.5)" `Quick test_committee_liveness_retry;
          Alcotest.test_case "degree-2 rejected" `Quick test_committee_rejects_high_degree;
        ] );
      ( "contribution",
        [
          Alcotest.test_case "sequence lengths" `Quick test_contribution_sequence_lengths;
          Alcotest.test_case "malicious rejected" `Quick test_contribution_malicious_rejected;
          Alcotest.test_case "wire roundtrip" `Quick test_contribution_wire_roundtrip;
          Alcotest.test_case "wire size" `Quick test_contribution_wire_size;
          Alcotest.test_case "decoder mutants" `Quick test_decoder_mutants;
          Alcotest.test_case "decoder fuzz" `Quick test_decoder_fuzz;
        ] );
      ( "summation-tree",
        [
          Alcotest.test_case "sums correctly" `Quick test_summation_tree_sums_correctly;
          Alcotest.test_case "audits pass" `Quick test_summation_tree_audits_pass;
          Alcotest.test_case "detects cheating" `Quick test_summation_tree_detects_cheating;
          Alcotest.test_case "forged total rejected" `Quick test_summation_tree_wrong_root_sum;
          Alcotest.test_case "root hash pinned" `Quick test_summation_tree_root_pinned;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "simple queries (Q2,Q4,Q5)" `Slow test_e2e_simple_queries;
          Alcotest.test_case "cross-column (Q3,Q9)" `Slow test_e2e_cross_column_queries;
          Alcotest.test_case "grouped (Q6,Q7,Q8,Q10)" `Slow test_e2e_grouped_queries;
          Alcotest.test_case "two-hop Q1" `Slow test_e2e_two_hop;
          Alcotest.test_case "aggregate degree within the key" `Slow
            test_e2e_aggregate_degree_within_key;
          Alcotest.test_case "Q1 infeasible at small params" `Quick test_e2e_q1_infeasible_at_small_params;
          Alcotest.test_case "noise at finite epsilon" `Slow test_e2e_noise_present_at_finite_epsilon;
          Alcotest.test_case "budget enforced" `Slow test_e2e_budget_enforced;
          Alcotest.test_case "invalid epsilon rejected" `Slow test_e2e_invalid_epsilon_rejected;
          Alcotest.test_case "committee rotates per query" `Slow test_e2e_committee_rotates_per_query;
          Alcotest.test_case "byzantine discarded" `Slow test_e2e_byzantine_contributions_discarded;
          Alcotest.test_case "through the mixnet" `Slow test_e2e_through_mixnet;
          Alcotest.test_case "mixnet at runtime seeds 1-5" `Slow test_e2e_mixnet_seed_sweep;
          Alcotest.test_case "mixnet churn degrades gracefully" `Slow test_e2e_mixnet_churn_degrades_gracefully;
          Alcotest.test_case "over-degree graph clipped" `Slow test_e2e_over_degree_graph_clipped;
          Alcotest.test_case "error paths" `Quick test_e2e_parse_and_analysis_errors;
          Alcotest.test_case "population below the committee" `Quick
            test_e2e_population_below_committee;
          Alcotest.test_case "fractions refused by name" `Quick test_e2e_bad_fractions_refused;
        ] );
    ]
