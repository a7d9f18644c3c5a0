(* Tests for mycelium_mixnet: bulletin board, verifiable maps + audits,
   hop selection, onion encoding, the analytic model (§6.3 anchors) and
   the C-round simulator. *)

module Rng = Mycelium_util.Rng
module Stats = Mycelium_util.Stats
module Elgamal = Mycelium_crypto.Elgamal
module Bulletin = Mycelium_mixnet.Bulletin
module Vmap = Mycelium_mixnet.Vmap
module Hopselect = Mycelium_mixnet.Hopselect
module Onion = Mycelium_mixnet.Onion
module Model = Mycelium_mixnet.Model
module Sim = Mycelium_mixnet.Sim
module Sha256 = Mycelium_crypto.Sha256
module Hex = Testkit.Hex
module Chacha20 = Mycelium_crypto.Chacha20

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bulletin                                                            *)
(* ------------------------------------------------------------------ *)

let test_bulletin_chain () =
  let b = Bulletin.create () in
  let e1 = Bulletin.post b ~author:"aggregator" (Bytes.of_string "roots") in
  let e2 = Bulletin.post b ~author:"device-3" (Bytes.of_string "complaint") in
  checki "sequence" 0 e1.Bulletin.seq;
  checki "sequence" 1 e2.Bulletin.seq;
  checkb "chained" true (Bytes.equal e2.Bulletin.prev_hash e1.Bulletin.hash);
  checkb "chain verifies" true (Bulletin.verify_chain b);
  checkb "head is newest" true (Bytes.equal (Bulletin.head_hash b) e2.Bulletin.hash)

let test_bulletin_length () =
  let b = Bulletin.create () in
  for i = 0 to 9 do
    ignore (Bulletin.post b ~author:"a" (Bytes.of_string (string_of_int i)))
  done;
  checki "length" 10 (Bulletin.length b);
  checkb "chain of ten verifies" true (Bulletin.verify_chain b)

(* ------------------------------------------------------------------ *)
(* Vmap                                                                *)
(* ------------------------------------------------------------------ *)

let make_leaves ?(pseudonyms_per_device = 1) n =
  let rng = Rng.create 99L in
  Array.init (n * pseudonyms_per_device) (fun i ->
      let pk, _ = Elgamal.generate rng in
      {
        Vmap.pseudonym = Elgamal.fingerprint pk;
        pk = Elgamal.pub_to_bytes pk;
        device = i / pseudonyms_per_device;
      })

let test_vmap_build_and_lookup () =
  let leaves = make_leaves 12 in
  match Vmap.build ~max_pseudonyms_per_device:1 leaves with
  | Error e -> Alcotest.fail e
  | Ok v ->
    checki "size" 12 (Vmap.size v);
    checki "devices" 12 (Vmap.device_count v);
    for i = 0 to 11 do
      let l = Vmap.lookup v i in
      checkb "lookup verifies" true (Vmap.verify_lookup ~m1_root:(Vmap.m1_root v) ~index:i l);
      checkb "device matches" true (l.Vmap.leaf.Vmap.device = i)
    done

let test_vmap_lookup_wrong_index_rejected () =
  let leaves = make_leaves 8 in
  let v = Vmap.build_unchecked ~max_pseudonyms_per_device:1 leaves in
  let l = Vmap.lookup v 3 in
  (* An aggregator answering lookup 5 with entry 3 is caught. *)
  checkb "misdirected lookup rejected" false
    (Vmap.verify_lookup ~m1_root:(Vmap.m1_root v) ~index:5 l)

let test_vmap_build_rejects_cheating () =
  let leaves = make_leaves 6 in
  (* Duplicate pseudonym. *)
  let dup = Array.copy leaves in
  dup.(5) <- { dup.(0) with Vmap.device = 5 };
  (match Vmap.build ~max_pseudonyms_per_device:1 dup with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate pseudonym accepted");
  (* Pseudonym not H(pk). *)
  let forged = Array.copy leaves in
  forged.(2) <- { forged.(2) with Vmap.pseudonym = Bytes.make 32 'x' };
  (match Vmap.build ~max_pseudonyms_per_device:1 forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged pseudonym accepted");
  (* Too many pseudonyms for one device. *)
  let sybil = Array.map (fun l -> { l with Vmap.device = 0 }) leaves in
  match Vmap.build ~max_pseudonyms_per_device:2 sybil with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pseudonym bound violation accepted"

(* Refusals no cheating case above reaches: keys that are not group
   elements (each leaf's pseudonym is H(pk), so only the key's form is at
   fault), a negative device and an empty map.  The group modulus p
   itself is the first value out of range; p - 1 is the last in it. *)
let test_vmap_build_refuses_malformed () =
  let leaves = make_leaves 4 in
  let build a = Vmap.build ~max_pseudonyms_per_device:1 a in
  let with_pk pk =
    let a = Array.copy leaves in
    a.(1) <- { (a.(1)) with Vmap.pk; pseudonym = Sha256.digest pk };
    a
  in
  let refuses what expected a =
    match build a with
    | Error e -> Alcotest.(check string) what expected e
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  let p = Hex.decode "90109c1cdccd1bf85cde95dee93ea51985ddccdef6b802a9ad2d527a156ad5bb" in
  let p_minus_1 = Hex.decode "90109c1cdccd1bf85cde95dee93ea51985ddccdef6b802a9ad2d527a156ad5ba" in
  refuses "31-byte key" "unparseable public key" (with_pk (Bytes.make 31 '\x01'));
  refuses "33-byte key" "unparseable public key" (with_pk (Bytes.make 33 '\x01'));
  refuses "zero key" "unparseable public key" (with_pk (Bytes.make 32 '\x00'));
  refuses "key = p" "unparseable public key" (with_pk p);
  refuses "key above p" "unparseable public key" (with_pk (Bytes.make 32 '\xff'));
  checkb "key = p - 1 accepted" true (Result.is_ok (build (with_pk p_minus_1)));
  let negative = Array.copy leaves in
  negative.(2) <- { (negative.(2)) with Vmap.device = -1 };
  refuses "negative device" "negative device number" negative;
  refuses "empty map" "empty map" [||]

let test_vmap_audits_pass_honest () =
  let leaves = make_leaves ~pseudonyms_per_device:3 5 in
  match Vmap.build ~max_pseudonyms_per_device:3 leaves with
  | Error e -> Alcotest.fail e
  | Ok v ->
    let rng = Rng.create 7L in
    checkb "spot check passes" true (Vmap.audit_spot_check v rng ~samples:30);
    (* Device 2 audits its own three pseudonyms. *)
    let own =
      Array.to_list leaves
      |> List.filter (fun l -> l.Vmap.device = 2)
      |> List.map (fun l -> l.Vmap.pseudonym)
    in
    checki "three pseudonyms" 3 (List.length own);
    checkb "own audit passes" true (Vmap.audit_own_pseudonyms v ~device:2 ~pseudonyms:own)

let test_vmap_own_audit_detects_omission () =
  let leaves = make_leaves 6 in
  let omitted = Array.sub leaves 0 5 in
  let v = Vmap.build_unchecked ~max_pseudonyms_per_device:1 omitted in
  (* Device 5's pseudonym was dropped by the aggregator. *)
  checkb "omission detected" false
    (Vmap.audit_own_pseudonyms v ~device:5 ~pseudonyms:[ leaves.(5).Vmap.pseudonym ])

let test_vmap_spot_check_detects_mismatch () =
  let leaves = make_leaves 8 in
  (* Malicious aggregator maps pseudonym 3 to device 6 (whose M2 leaf
     does not contain pk 3). *)
  let bad = Array.copy leaves in
  bad.(3) <- { bad.(3) with Vmap.device = 6 };
  let v = Vmap.build_unchecked ~max_pseudonyms_per_device:1 bad in
  let rng = Rng.create 11L in
  (* With enough samples the spot check must hit index 3. *)
  checkb "mismatch detected" false (Vmap.audit_spot_check v rng ~samples:200)

(* ------------------------------------------------------------------ *)
(* Hopselect                                                           *)
(* ------------------------------------------------------------------ *)

let beacon = Mycelium_crypto.Sha256.digest_string "test beacon"

(* H(x || B) as the rank orders it: the digest's first 62 bits. *)
let score ~beacon x =
  let h = Sha256.init () in
  Sha256.update_string h (string_of_int x);
  Sha256.update h beacon;
  Int64.shift_right_logical (Bytes.get_int64_be (Sha256.finalize h) 0) 2

let test_hopselect_rank_order () =
  (* A permutation of the pseudonym numbers, by hash, ties by number,
     and a pure function of (beacon, total). *)
  let total = 2000 in
  let ranks = Hopselect.rank ~beacon total in
  checkb "deterministic" true (ranks = Hopselect.rank ~beacon total);
  checkb "a permutation" true
    (List.sort Int.compare (Array.to_list ranks) = List.init total Fun.id);
  for r = 1 to total - 1 do
    let a = ranks.(r - 1) and b = ranks.(r) in
    match Int64.compare (score ~beacon a) (score ~beacon b) with
    | 0 -> checkb "ties by number" true (a < b)
    | c -> checkb "increasing hash" true (c < 0)
  done

let test_hopselect_slices_exact () =
  (* Hop i draws exactly the s pseudonyms at ranks [(i-1)*s, i*s), and
     no other hop draws them. *)
  let total = 1000 and k = 3 in
  let width = int_of_float (0.1 *. float_of_int total) in
  let ranks = Hopselect.rank ~beacon total in
  let owner = Hashtbl.create total in
  for hop = 1 to k do
    let rng = Rng.keyed 3L Rng.Mix_path [ hop ] in
    let drawn = Hashtbl.create width in
    for _ = 1 to 40 * width do
      let x = (Hopselect.draw_path rng ranks ~width ~hops:k).(hop - 1) in
      Hashtbl.replace drawn x ();
      (match Hashtbl.find_opt owner x with
      | Some h -> checki "slices disjoint" hop h
      | None -> Hashtbl.replace owner x hop)
    done;
    checki (Printf.sprintf "hop %d holds exactly s" hop) width (Hashtbl.length drawn);
    for r = (hop - 1) * width to (hop * width) - 1 do
      checkb "rank in its hop's slice" true (Hashtbl.mem drawn ranks.(r))
    done
  done;
  checki "k*s forwarders" (k * width) (Hashtbl.length owner)

let test_hopselect_one_draw_per_hop () =
  (* A path is one [Rng.int] per hop, and leaves the stream where those
     draws leave it. *)
  let width = 100 in
  let ranks = Hopselect.rank ~beacon 1000 in
  let a = Rng.keyed 5L Rng.Mix_path [ 0 ] and b = Rng.keyed 5L Rng.Mix_path [ 0 ] in
  let path = Hopselect.draw_path a ranks ~width ~hops:3 in
  let expected = Array.init 3 (fun i -> ranks.((i * width) + Rng.int b width)) in
  checkb "path = one draw per hop" true (path = expected);
  Alcotest.(check int64) "stream left after the k draws" (Rng.int64 b) (Rng.int64 a)

let test_hopselect_beacon_matters () =
  let other = Mycelium_crypto.Sha256.digest_string "other beacon" in
  checkb "different beacons give different ranks" true
    (Hopselect.rank ~beacon 100 <> Hopselect.rank ~beacon:other 100)

(* ------------------------------------------------------------------ *)
(* Onion                                                               *)
(* ------------------------------------------------------------------ *)

(* The reference layering: one SEnc layer is the ChaCha20 stream at
   the round's nonce, so adding and peeling are the same XOR, and the
   first hop's layer goes on last. *)
let layer ~key ~round msg = Chacha20.encrypt ~key ~nonce:(Chacha20.nonce_of_round round) msg

let layered ~hop_keys ~round inner =
  List.fold_left (fun acc key -> layer ~key ~round acc) inner (List.rev hop_keys)

(* Copying forms over the in-place kernels the simulator runs. *)
let wrap ~hop_keys ~round inner =
  let dst = Bytes.create (Bytes.length inner) in
  Onion.wrap_into ~hop_keys:(Array.of_list hop_keys) ~round ~inner ~dst ~dst_pos:0;
  dst

let peel ~key ~round msg =
  let dst = Bytes.create (Bytes.length msg) in
  Onion.peel_into ~key ~round ~src:msg ~src_pos:0 ~dst ~dst_pos:0 (Bytes.length msg);
  dst

let peel_all ~hop_keys ~round onion =
  List.fold_left (fun acc key -> peel ~key ~round acc) onion hop_keys

let test_onion_wrap_unwrap () =
  let rng = Rng.create 21L in
  let keys = List.init 3 (fun _ -> Rng.bytes rng 32) in
  let dst_key = Rng.bytes rng 32 in
  let payload = Bytes.of_string "query 7: are you ill?" in
  let inner = Onion.seal_inner ~key:dst_key ~round:5 payload in
  let onion = wrap ~hop_keys:keys ~round:5 inner in
  (* Peel hop by hop in path order. *)
  let after = peel_all ~hop_keys:keys ~round:5 onion in
  (match Onion.open_inner ~key:dst_key ~round:5 after with
  | Some p -> checkb "payload intact" true (Bytes.equal p payload)
  | None -> Alcotest.fail "inner layer did not open");
  checkb "peeling matches the reference layers" true
    (Bytes.equal after
       (List.fold_left (fun acc key -> layer ~key ~round:5 acc) onion keys))

let test_onion_length_constant () =
  let rng = Rng.create 22L in
  let keys = List.init 4 (fun _ -> Rng.bytes rng 32) in
  let inner = Onion.seal_inner ~key:(Rng.bytes rng 32) ~round:1 (Bytes.create 100) in
  let onion = wrap ~hop_keys:keys ~round:1 inner in
  checki "wrapping preserves length" (Bytes.length inner) (Bytes.length onion);
  let peeled = peel ~key:(List.hd keys) ~round:1 onion in
  checki "peeling preserves length" (Bytes.length onion) (Bytes.length peeled)

let test_onion_dummy_undetectable_shape () =
  (* A dummy has the same length as a real layered message, and peeling
     it yields bytes, not an error — only the destination's AE can tell
     (the §3.5 design). *)
  let rng = Rng.create 23L in
  let key = Rng.bytes rng 32 and dst = Rng.bytes rng 32 in
  let real = wrap ~hop_keys:[ key ] ~round:2 (Onion.seal_inner ~key:dst ~round:2 (Bytes.create 40)) in
  let dummy = Bytes.create (Bytes.length real) in
  Onion.dummy_into rng ~dst:dummy ~dst_pos:0 ~length:(Bytes.length real);
  let peeled = peel ~key ~round:2 dummy in
  checkb "dummy rejected only by the destination AE" true
    (Onion.open_inner ~key:dst ~round:2 peeled = None)

let test_onion_wrong_round_fails () =
  let rng = Rng.create 24L in
  let dst = Rng.bytes rng 32 in
  let inner = Onion.seal_inner ~key:dst ~round:3 (Bytes.of_string "m") in
  checkb "wrong round rejected" true (Onion.open_inner ~key:dst ~round:4 inner = None)

(* The in-place entry points the arena simulator runs, against the
   reference layering and the allocating draws. *)

let test_onion_wrap_into () =
  let rng = Rng.create 25L in
  let keys = List.init 3 (fun _ -> Rng.bytes rng 32) in
  let inner = Onion.seal_inner ~key:(Rng.bytes rng 32) ~round:9 (Rng.bytes rng 301) in
  let len = Bytes.length inner in
  (* A slot at an odd offset inside a larger arena; the bytes around it
     must survive. *)
  let arena = Rng.bytes rng (len + 40) in
  let before = Bytes.copy arena in
  Onion.wrap_into ~hop_keys:(Array.of_list keys) ~round:9 ~inner ~dst:arena ~dst_pos:13;
  checkb "equals the reference layering" true
    (Bytes.equal (Bytes.sub arena 13 len) (layered ~hop_keys:keys ~round:9 inner));
  checkb "prefix untouched" true (Bytes.equal (Bytes.sub arena 0 13) (Bytes.sub before 0 13));
  checkb "suffix untouched" true
    (Bytes.equal (Bytes.sub arena (13 + len) 27) (Bytes.sub before (13 + len) 27))

let test_onion_peel_into_in_place () =
  let rng = Rng.create 26L in
  let key = Rng.bytes rng 32 in
  List.iter
    (fun (len, pos) ->
      let arena = Rng.bytes rng (len + pos + 5) in
      let expected = layer ~key ~round:4 (Bytes.sub arena pos len) in
      Onion.peel_into ~key ~round:4 ~src:arena ~src_pos:pos ~dst:arena ~dst_pos:pos len;
      checkb
        (Printf.sprintf "len %d at %d" len pos)
        true
        (Bytes.equal (Bytes.sub arena pos len) expected))
    [ (0, 0); (1, 3); (63, 1); (64, 8); (65, 7); (200, 5); (8448, 11) ]

let test_onion_dummy_into () =
  let a = Rng.create 27L and b = Rng.create 27L in
  List.iter
    (fun length ->
      let dst = Bytes.make (length + 9) '\x5a' in
      Onion.dummy_into b ~dst ~dst_pos:4 ~length;
      checkb
        (Printf.sprintf "length %d" length)
        true
        (Bytes.equal (Bytes.sub dst 4 length) (Rng.bytes a length));
      checkb "outside the slice untouched" true
        (Bytes.equal (Bytes.sub dst 0 4) (Bytes.make 4 '\x5a')
        && Bytes.equal (Bytes.sub dst (4 + length) 5) (Bytes.make 5 '\x5a')))
    [ 0; 1; 7; 8; 100; 8448 ]

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let prop_onion_roundtrip =
  qtest "onion wrap/peel identity for random paths"
    QCheck.(triple (int_range 1 6) (int_range 0 512) small_nat)
    (fun (hops, len, round) ->
      let rng = Rng.create (Int64.of_int ((hops * 1009) + len + round)) in
      let keys = List.init hops (fun _ -> Rng.bytes rng 32) in
      let dst = Rng.bytes rng 32 in
      let payload = Rng.bytes rng len in
      let onion = wrap ~hop_keys:keys ~round (Onion.seal_inner ~key:dst ~round payload) in
      match Onion.open_inner ~key:dst ~round (peel_all ~hop_keys:keys ~round onion) with
      | Some p -> Bytes.equal p payload
      | None -> false)

let prop_onion_partial_peel_garbles =
  qtest "missing a layer leaves the inner AE closed" QCheck.(int_range 2 5) (fun hops ->
      let rng = Rng.create (Int64.of_int (hops * 31)) in
      let keys = List.init hops (fun _ -> Rng.bytes rng 32) in
      let dst = Rng.bytes rng 32 in
      let onion =
        wrap ~hop_keys:keys ~round:1 (Onion.seal_inner ~key:dst ~round:1 (Bytes.create 32))
      in
      (* Peel all but the last layer. *)
      let almost =
        peel_all ~hop_keys:(List.filteri (fun i _ -> i < hops - 1) keys) ~round:1 onion
      in
      Onion.open_inner ~key:dst ~round:1 almost = None)

(* ------------------------------------------------------------------ *)
(* Analytic model (§6.3 anchors)                                       *)
(* ------------------------------------------------------------------ *)

let test_model_rounds () =
  (* Figure 5d. *)
  checki "telescoping k=2" 8 (Model.telescoping_rounds ~hops:2);
  checki "telescoping k=3" 15 (Model.telescoping_rounds ~hops:3);
  checki "telescoping k=4" 24 (Model.telescoping_rounds ~hops:4);
  checki "forwarding k=2" 6 (Model.forwarding_rounds ~hops:2);
  checki "forwarding k=3" 8 (Model.forwarding_rounds ~hops:3);
  checki "forwarding k=4" 10 (Model.forwarding_rounds ~hops:4)

let test_model_anonymity_anchor () =
  (* §6.3: r=2, k=3, f=0.1, mal=0.02 -> anonymity set over 7000. *)
  let v = Model.anonymity_set ~n:1.1e6 ~hops:3 ~replicas:2 ~fraction:0.1 ~malicious:0.02 in
  checkb "over 7000" true (v > 7000.);
  checkb "below (r/f)^k" true (v <= 8000.);
  (* Larger r gives larger sets (the Fig 5a trend). *)
  let v3 = Model.anonymity_set ~n:1.1e6 ~hops:3 ~replicas:3 ~fraction:0.1 ~malicious:0.02 in
  let v1 = Model.anonymity_set ~n:1.1e6 ~hops:3 ~replicas:1 ~fraction:0.1 ~malicious:0.02 in
  checkb "monotone in r" true (v1 < v && v < v3);
  (* More hops give larger sets. *)
  let v4 = Model.anonymity_set ~n:1.1e6 ~hops:4 ~replicas:2 ~fraction:0.1 ~malicious:0.02 in
  checkb "monotone in k" true (v4 > v)

let test_model_identification_anchor () =
  (* §6.3: k=3, mal=0.02 -> p ~ 1e-5 per query. *)
  let p = Model.identification_probability ~hops:3 ~replicas:2 ~malicious:0.02 in
  checkb "around 1e-5" true (p > 5e-6 && p < 5e-5);
  (* Monotone in malice, decreasing in hops. *)
  checkb "worse with more malice" true
    (Model.identification_probability ~hops:3 ~replicas:2 ~malicious:0.04 > p);
  checkb "better with more hops" true
    (Model.identification_probability ~hops:4 ~replicas:2 ~malicious:0.02 < p)

let test_model_goodput_anchor () =
  (* §6.3: r=2, 4% failure -> about one in 100 messages lost. *)
  let g = Model.goodput ~hops:3 ~replicas:2 ~failure_rate:0.04 in
  let loss = 1. -. g in
  checkb "about 1%" true (loss > 0.005 && loss < 0.02);
  checkb "r=1 worse" true (Model.goodput ~hops:3 ~replicas:1 ~failure_rate:0.04 < g);
  checkb "r=3 better" true (Model.goodput ~hops:3 ~replicas:3 ~failure_rate:0.04 > g)

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  { Sim.default_config with Sim.n_devices = 60; degree = 3; hops = 2; replicas = 2; seed = 42L }

let test_sim_setup_and_delivery () =
  let t = Sim.create small_cfg in
  checkb "audits pass" true (Sim.audit_all t);
  let s = Sim.setup_paths t in
  checki "paths requested" (60 * 3 * 2) s.Sim.paths_requested;
  checkb "most paths established" true (s.Sim.paths_established > s.Sim.paths_requested * 9 / 10);
  checki "setup rounds k^2+2k" 8 s.Sim.setup_rounds;
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "ping") in
  checki "all messages sent" 180 r.Sim.messages_sent;
  (* No churn: everything established must be delivered. *)
  checkb "high delivery" true (r.Sim.delivered >= r.Sim.messages_sent * 9 / 10);
  checki "rounds used 2k+2" 6 r.Sim.rounds_used

let test_sim_payload_integrity () =
  let t = Sim.create { small_cfg with Sim.malicious_fraction = 0. } in
  ignore (Sim.setup_paths t);
  let payload = Bytes.of_string "the vertex program message" in
  let r = Sim.run_query_round t ~payload in
  checkb "all delivered" true (r.Sim.lost = 0);
  List.iter
    (fun (_, _, body) -> checkb "payload intact" true (Bytes.equal body payload))
    (Sim.deliveries t);
  checki "one delivery per message" r.Sim.delivered (List.length (Sim.deliveries t))

let test_sim_self_targets_by_default () =
  let t = Sim.create { small_cfg with Sim.malicious_fraction = 0. } in
  ignore (Sim.setup_paths t);
  ignore (Sim.run_query_round t ~payload:(Bytes.of_string "x"));
  List.iter
    (fun (src, dst, _) -> checki "self-loop" src dst)
    (Sim.deliveries t)

let test_sim_churn_costs_delivery () =
  let run churn =
    let t =
      Sim.create
        { small_cfg with Sim.churn; malicious_fraction = 0.; fast_setup = true; seed = 77L }
    in
    ignore (Sim.setup_paths t);
    let r = Sim.run_query_round t ~payload:(Bytes.of_string "x") in
    (r.Sim.delivered, r.Sim.messages_sent, r.Sim.dummies_uploaded)
  in
  let d0, m0, _ = run 0.0 in
  let d3, m3, dummies = run 0.3 in
  checki "no churn, full delivery" m0 d0;
  checkb "heavy churn loses messages" true (d3 < m3);
  checkb "dummies cover gaps" true (dummies > 0)

let test_sim_malicious_forwarders_drop () =
  (* With most devices malicious, forwarders drop covertly: deliveries
     fall and dummies appear, but the traffic pattern (uploads) is
     preserved by construction. *)
  let t =
    Sim.create
      { small_cfg with Sim.malicious_fraction = 0.8; fast_setup = true; seed = 9L }
  in
  ignore (Sim.setup_paths t);
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "x") in
  checkb "messages lost to malice" true (r.Sim.lost > 0);
  checkb "dummies mask the drops" true (r.Sim.dummies_uploaded > 0);
  checkb "some senders identified" true (r.Sim.identified > 0)

let test_sim_anonymity_grows_with_population () =
  let anon n =
    let t =
      Sim.create
        {
          small_cfg with
          Sim.n_devices = n;
          fast_setup = true;
          malicious_fraction = 0.05;
          seed = 13L;
        }
    in
    ignore (Sim.setup_paths t);
    let r = Sim.run_query_round t ~payload:(Bytes.of_string "x") in
    Stats.mean (Array.map float_of_int r.Sim.anonymity_sets)
  in
  let a60 = anon 60 and a200 = anon 200 in
  checkb "bigger population, bigger anonymity sets" true (a200 > a60);
  checkb "set bounded by population" true (a60 <= 60.)

let test_sim_observer_never_breaks_honest_paths () =
  (* With zero malicious devices the adversary's candidate sets must be
     large: no delivered message is pinned to one sender. *)
  let t =
    Sim.create
      { small_cfg with Sim.malicious_fraction = 0.; fast_setup = true; seed = 15L }
  in
  ignore (Sim.setup_paths t);
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "x") in
  checki "nobody identified" 0 r.Sim.identified;
  Array.iter (fun a -> checkb "anonymity > 1" true (a > 1)) r.Sim.anonymity_sets

let test_sim_bulletin_records_rounds () =
  let t = Sim.create { small_cfg with Sim.fast_setup = true } in
  ignore (Sim.setup_paths t);
  let before = Bulletin.length (Sim.bulletin t) in
  ignore (Sim.run_query_round t ~payload:(Bytes.of_string "x"));
  let after = Bulletin.length (Sim.bulletin t) in
  (* One MHT-root commitment per C-round with traffic. *)
  checkb "round commitments posted" true (after >= before + 2);
  checkb "chain verifies" true (Bulletin.verify_chain (Sim.bulletin t))

let test_sim_multi_pseudonym () =
  (* P = 3 pseudonyms per device (assumption 4, §3.1): the pseudonym
     space triples, hop slots are drawn from it, devices fetch all
     their mailboxes, and the M1/M2 audits still pass with the larger
     bound. Messages target specific pseudonyms of specific devices. *)
  let n = 40 and p = 3 in
  let t =
    Sim.create
      {
        small_cfg with
        Sim.n_devices = n;
        pseudonyms_per_device = p;
        degree = 2;
        malicious_fraction = 0.;
        seed = 88L;
      }
  in
  checkb "audits pass at P=3" true (Sim.audit_all t);
  checki "pseudonym space tripled" (n * p) (Vmap.size (Sim.vmap t));
  (* Device i messages two distinct pseudonyms of device i+1. *)
  let targets =
    Array.init n (fun i ->
        let next = (i + 1) mod n in
        [| (next * p) + 1; (next * p) + 2 |])
  in
  let s = Sim.setup_paths ~targets t in
  checkb "paths established through pseudonym space" true
    (s.Sim.paths_established > s.Sim.paths_requested * 9 / 10);
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "multi") in
  checkb "delivered" true (r.Sim.delivered >= r.Sim.messages_sent * 9 / 10);
  List.iter
    (fun (src, dst_pseudo, _) ->
      let dst_dev = dst_pseudo / p in
      checki "ring neighbor" ((src + 1) mod n) dst_dev;
      checkb "targeted pseudonym slot" true (dst_pseudo mod p = 1 || dst_pseudo mod p = 2))
    (Sim.deliveries t)

let test_sim_repeated_rounds () =
  (* Paths persist across vertex-program rounds; every round delivers,
     and the adversary's anonymity sets do not erode over time — the
     §4.7 traffic-analysis claim: because every device participates in
     every stage (dummies included), repeated observation adds no
     information. *)
  let t =
    Sim.create
      { small_cfg with Sim.malicious_fraction = 0.1; fast_setup = true; seed = 99L }
  in
  ignore (Sim.setup_paths t);
  let means =
    List.init 3 (fun i ->
        let r = Sim.run_query_round t ~payload:(Bytes.of_string (string_of_int i)) in
        checkb "round delivers" true (r.Sim.delivered > r.Sim.messages_sent * 8 / 10);
        Stats.mean (Array.map float_of_int r.Sim.anonymity_sets))
  in
  match means with
  | [ m1; m2; m3 ] ->
    checkb "anonymity does not erode" true (m2 >= m1 *. 0.9 && m3 >= m1 *. 0.9)
  | _ -> Alcotest.fail "expected three rounds"

let test_sim_footprint_stable () =
  (* Leak regression: [run_query_round] owns a per-round lifecycle —
     slot ids, origin tags, downloads and mailboxes all reset — so the
     simulator's long-lived structures stop growing once the slot slab
     and arenas reach their high-water mark in round one.  With zero
     churn the rounds are also deterministically identical, so the
     per-round stats must repeat exactly. *)
  let t =
    Sim.create
      {
        small_cfg with
        Sim.malicious_fraction = 0.1;
        churn = 0.;
        fast_setup = true;
        seed = 21L;
      }
  in
  ignore (Sim.setup_paths t);
  let run i = Sim.run_query_round t ~payload:(Bytes.of_string (string_of_int i)) in
  let r1 = run 1 in
  let f1 = Sim.footprint t in
  let r2 = run 2 in
  let r3 = run 3 in
  let r4 = run 4 in
  let r5 = run 5 in
  ignore r2;
  ignore r3;
  ignore r4;
  let f5 = Sim.footprint t in
  checki "paths stable" f1.Sim.established_paths f5.Sim.established_paths;
  checki "route entries stable" f1.Sim.route_entries f5.Sim.route_entries;
  checki "slot slab at high-water mark" f1.Sim.slot_capacity f5.Sim.slot_capacity;
  checki "arenas at high-water mark" f1.Sim.arena_bytes f5.Sim.arena_bytes;
  checki "downloads bounded per round" f1.Sim.download_entries f5.Sim.download_entries;
  checki "link index drained" 0 f5.Sim.link_index_entries;
  checki "mailboxes drained" 0 f5.Sim.mailboxes_in_use;
  (* Churn-free rounds replay exactly: any drift here means per-round
     state leaked into the next round's decisions. *)
  checki "delivered stable" r1.Sim.delivered r5.Sim.delivered;
  checki "dummies stable" r1.Sim.dummies_uploaded r5.Sim.dummies_uploaded;
  checki "deposited bytes stable" r1.Sim.deposited_bytes r5.Sim.deposited_bytes

let test_sim_repeated_setup () =
  (* A second [setup_paths] call adds messages of its own: its paths
     must not merge into the first call's messages as extra replicas. *)
  let n = small_cfg.Sim.n_devices in
  let t = Sim.create { small_cfg with Sim.malicious_fraction = 0. } in
  let ring step = Array.init n (fun i -> [| (i + step) mod n |]) in
  let s1 = Sim.setup_paths ~targets:(ring 1) t in
  let s3 = Sim.setup_paths ~targets:(ring 3) t in
  checki "paths established" (2 * n * 2) (s1.Sim.paths_established + s3.Sim.paths_established);
  let payload = Bytes.of_string "two rings" in
  let r = Sim.run_query_round t ~payload in
  checki "messages sent" (2 * n) r.Sim.messages_sent;
  let plus3 = List.filter (fun (src, dst, _) -> dst = (src + 3) mod n) (Sim.deliveries t) in
  checki "+3 ring delivered" n (List.length plus3);
  List.iter (fun (_, _, body) -> checkb "payload intact" true (Bytes.equal body payload)) plus3

let test_sim_audit_changes_nothing () =
  (* [audit_all] only reads: a round run after it delivers exactly what
     the same round delivers without it, churn and Byzantine drops
     included. *)
  let cfg = { small_cfg with Sim.churn = 0.2; malicious_fraction = 0.1; fast_setup = true } in
  let run ~audit =
    let t = Sim.create cfg in
    ignore (Sim.setup_paths t);
    if audit then checkb "audits pass" true (Sim.audit_all t);
    let r = Sim.run_query_round t ~payload:(Bytes.of_string "audit") in
    (r, Sim.deliveries t)
  in
  let r0, d0 = run ~audit:false in
  let r1, d1 = run ~audit:true in
  checki "delivered" r0.Sim.delivered r1.Sim.delivered;
  checki "dummies" r0.Sim.dummies_uploaded r1.Sim.dummies_uploaded;
  checkb "round stats identical" true (r0 = r1);
  checkb "deliveries identical" true (d0 = d1)

(* Hop slices are never empty, so every beacon sets up every path.  A
   hash-fraction rule emptied a slice, and set-up raised, at seed 37 of
   the 12-device shape and at seeds 31, 75 and 147 of the 40-device
   ring. *)
let sweep_setup ~seeds cfg ?targets () =
  for seed = 1 to seeds do
    let t = Sim.create { cfg with Sim.seed = Int64.of_int seed } in
    let s = Sim.setup_paths ?targets t in
    checki (Printf.sprintf "seed %d: every path set up" seed) s.Sim.paths_requested
      s.Sim.paths_established
  done

let fast_cfg =
  { Sim.default_config with Sim.malicious_fraction = 0.; fast_setup = true; fast_keys = true }

let test_sim_sweep_serve_shape () =
  sweep_setup ~seeds:50
    { fast_cfg with Sim.n_devices = 12; degree = 4; hops = 2; replicas = 2; fraction = 0.4 }
    ()

let test_sim_sweep_ring_shape () =
  let n = 40 in
  sweep_setup ~seeds:200
    { fast_cfg with Sim.n_devices = n; degree = 2; hops = 3; replicas = 2; fraction = 0.1 }
    ~targets:(Array.init n (fun i -> [| (i + 1) mod n; (i + 2) mod n |]))
    ()

let test_sim_refuses_bad_fractions () =
  let refused msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Sim.create cfg))
  in
  let cfg = { fast_cfg with Sim.n_devices = 12; hops = 3 } in
  refused "Sim.create: fraction 0 is outside (0, 1/3]" { cfg with Sim.fraction = 0. };
  refused "Sim.create: fraction 0.5 is outside (0, 1/3]" { cfg with Sim.fraction = 0.5 };
  refused "Sim.create: fraction nan is outside (0, 1/3]" { cfg with Sim.fraction = Float.nan };
  refused "Sim.create: fraction 0.05 gives hop slices of floor(0.05 * 12) = 0"
    { cfg with Sim.fraction = 0.05 };
  refused "Sim.create: malicious_fraction nan is outside [0, 1]"
    { cfg with Sim.malicious_fraction = Float.nan };
  refused "Sim.create: malicious_fraction 1.5 is outside [0, 1]"
    { cfg with Sim.malicious_fraction = 1.5 };
  refused "Sim.create: malicious_fraction -0.1 is outside [0, 1]"
    { cfg with Sim.malicious_fraction = -0.1 };
  (* The bounds themselves are accepted. *)
  ignore (Sim.create { cfg with Sim.fraction = 1. /. 3.; malicious_fraction = 1. });
  ignore (Sim.create { cfg with Sim.fraction = 0.1 })

let test_sim_acceptance_100k () =
  (* ISSUE.md acceptance cell: a 10^5-device, 2-query-round run under
     a fixed heap bound.  [fast_keys] swaps key generation for the
     insecure-but-fast variant (538µs -> ~0 per path) and sampling
     caps the observer's verification and anonymity work; the Gc
     ceiling below is the documented "memory-bounded streaming" claim
     at this scale (see DESIGN.md §12). *)
  let n = 100_000 in
  let t =
    Sim.create
      {
        Sim.default_config with
        Sim.n_devices = n;
        degree = 1;
        hops = 3;
        replicas = 2;
        churn = 0.01;
        malicious_fraction = 0.02;
        fraction = 0.1;
        fast_setup = true;
        fast_keys = true;
        verify_every = 101;
        anon_sample = 13;
        seed = 7L;
      }
  in
  let s = Sim.setup_paths t in
  checkb "most paths established" true (s.Sim.paths_established > s.Sim.paths_requested * 9 / 10);
  let r1 = Sim.run_query_round t ~payload:(Bytes.of_string "acceptance-1") in
  let f1 = Sim.footprint t in
  let r2 = Sim.run_query_round t ~payload:(Bytes.of_string "acceptance-2") in
  let f2 = Sim.footprint t in
  checkb "round 1 delivers" true (r1.Sim.delivered > r1.Sim.messages_sent * 9 / 10);
  checkb "round 2 delivers" true (r2.Sim.delivered > r2.Sim.messages_sent * 9 / 10);
  checki "slot slab stable across rounds" f1.Sim.slot_capacity f2.Sim.slot_capacity;
  checki "arenas stable across rounds" f1.Sim.arena_bytes f2.Sim.arena_bytes;
  let heap_bytes = (Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  checkb
    (Printf.sprintf "top heap %d MB under 2 GB budget" (heap_bytes / (1024 * 1024)))
    true
    (heap_bytes < 2 * 1024 * 1024 * 1024)

let test_sim_rounds_advance_clock () =
  let t = Sim.create { small_cfg with Sim.fast_setup = true } in
  ignore (Sim.setup_paths t);
  let before = Sim.current_round t in
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "x") in
  checkb "C-round clock advanced" true (Sim.current_round t >= before + r.Sim.rounds_used)

let test_sim_explicit_targets () =
  let n = 40 in
  let t =
    Sim.create
      { small_cfg with Sim.n_devices = n; degree = 2; malicious_fraction = 0.; seed = 21L }
  in
  (* A ring: device i messages i+1 and i+2. *)
  let targets = Array.init n (fun i -> [| (i + 1) mod n; (i + 2) mod n |]) in
  ignore (Sim.setup_paths ~targets t);
  let r = Sim.run_query_round t ~payload:(Bytes.of_string "hi") in
  checki "all delivered" r.Sim.messages_sent r.Sim.delivered;
  List.iter
    (fun (src, dst, _) ->
      checkb "ring structure" true (dst = (src + 1) mod n || dst = (src + 2) mod n))
    (Sim.deliveries t)

(* [payload_of] runs once per online sending group per round: the
   group the round probes for the slot length is wrapped from the
   probe's bytes.  A ring of explicit targets gives every message its
   own (source, destination) pair, and churn takes some senders
   offline.  What the rounds deliver is pinned by a digest. *)
let test_sim_payload_built_once () =
  let n = 40 in
  let t =
    Sim.create
      { small_cfg with
        Sim.n_devices = n;
        degree = 2;
        malicious_fraction = 0.;
        churn = 0.2;
        seed = 21L
      }
  in
  let targets = Array.init n (fun i -> [| (i + 1) mod n; (i + 2) mod n |]) in
  ignore (Sim.setup_paths ~targets t);
  let lock = Mutex.create () and calls = Hashtbl.create 64 in
  let payload_of ~source ~dest =
    Mutex.protect lock (fun () ->
        let seen = Option.value ~default:0 (Hashtbl.find_opt calls (source, dest)) in
        Hashtbl.replace calls (source, dest) (seen + 1));
    let b = Bytes.make 48 '\x00' in
    Bytes.set_int64_le b 0 (Int64.of_int source);
    Bytes.set_int64_le b 8 (Int64.of_int dest);
    b
  in
  let h = Sha256.init () in
  let feed v = Sha256.update_string h (string_of_int v ^ ";") in
  for round = 1 to 2 do
    Hashtbl.reset calls;
    let r = Sim.run_query_round_with t ~payload_of in
    let built = Hashtbl.length calls in
    checkb (Printf.sprintf "round %d: some senders offline" round) true (built < r.Sim.messages_sent);
    checkb (Printf.sprintf "round %d: every delivery was built" round) true (r.Sim.delivered <= built);
    Hashtbl.iter
      (fun (s, d) count -> checki (Printf.sprintf "round %d: %d -> %d built" round s d) 1 count)
      calls;
    List.iter feed
      [ r.Sim.messages_sent; r.Sim.delivered; r.Sim.lost; r.Sim.copies_delivered;
        r.Sim.copies_lost; r.Sim.dummies_uploaded; r.Sim.identified; r.Sim.deposited_bytes;
        r.Sim.rounds_used ];
    Array.iter feed r.Sim.anonymity_sets;
    List.iter
      (fun (src, dst, body) ->
        feed src;
        feed dst;
        Sha256.update h body)
      (Sim.deliveries t)
  done;
  Alcotest.(check string) "deliveries and stats"
    "90957b9b9701ba303cc44c14db812996146260b794ed698a23b327346ca3f9bb"
    (Hex.encode (Sha256.finalize h))

let () =
  Alcotest.run "mycelium-mixnet"
    [
      ( "bulletin",
        [
          Alcotest.test_case "hash chain" `Quick test_bulletin_chain;
          Alcotest.test_case "length" `Quick test_bulletin_length;
        ] );
      ( "vmap",
        [
          Alcotest.test_case "build and lookup" `Quick test_vmap_build_and_lookup;
          Alcotest.test_case "wrong index rejected" `Quick test_vmap_lookup_wrong_index_rejected;
          Alcotest.test_case "build rejects cheating" `Quick test_vmap_build_rejects_cheating;
          Alcotest.test_case "build refuses malformed" `Quick test_vmap_build_refuses_malformed;
          Alcotest.test_case "audits pass honest map" `Quick test_vmap_audits_pass_honest;
          Alcotest.test_case "own audit detects omission" `Quick test_vmap_own_audit_detects_omission;
          Alcotest.test_case "spot check detects mismatch" `Quick test_vmap_spot_check_detects_mismatch;
        ] );
      ( "hopselect",
        [
          Alcotest.test_case "rank by hash, ties by number" `Quick test_hopselect_rank_order;
          Alcotest.test_case "slices disjoint, exactly s each" `Quick test_hopselect_slices_exact;
          Alcotest.test_case "one draw per hop" `Quick test_hopselect_one_draw_per_hop;
          Alcotest.test_case "beacon matters" `Quick test_hopselect_beacon_matters;
        ] );
      ( "onion",
        [
          Alcotest.test_case "wrap/unwrap roundtrip" `Quick test_onion_wrap_unwrap;
          Alcotest.test_case "length constant" `Quick test_onion_length_constant;
          Alcotest.test_case "dummies look right" `Quick test_onion_dummy_undetectable_shape;
          Alcotest.test_case "wrong round fails" `Quick test_onion_wrong_round_fails;
          Alcotest.test_case "wrap_into equals wrap" `Quick test_onion_wrap_into;
          Alcotest.test_case "peel_into in place" `Quick test_onion_peel_into_in_place;
          Alcotest.test_case "dummy_into equals dummy" `Quick test_onion_dummy_into;
          prop_onion_roundtrip;
          prop_onion_partial_peel_garbles;
        ] );
      ( "model",
        [
          Alcotest.test_case "round counts (Fig 5d)" `Quick test_model_rounds;
          Alcotest.test_case "anonymity anchor (Fig 5a)" `Quick test_model_anonymity_anchor;
          Alcotest.test_case "identification anchor (Fig 5b)" `Quick test_model_identification_anchor;
          Alcotest.test_case "goodput anchor (Fig 5c)" `Quick test_model_goodput_anchor;
        ] );
      ( "sim",
        [
          Alcotest.test_case "setup and delivery" `Quick test_sim_setup_and_delivery;
          Alcotest.test_case "payload integrity" `Quick test_sim_payload_integrity;
          Alcotest.test_case "self targets by default" `Quick test_sim_self_targets_by_default;
          Alcotest.test_case "churn costs delivery" `Quick test_sim_churn_costs_delivery;
          Alcotest.test_case "malicious forwarders drop covertly" `Quick test_sim_malicious_forwarders_drop;
          Alcotest.test_case "anonymity grows with population" `Quick test_sim_anonymity_grows_with_population;
          Alcotest.test_case "honest paths stay anonymous" `Quick test_sim_observer_never_breaks_honest_paths;
          Alcotest.test_case "bulletin records rounds" `Quick test_sim_bulletin_records_rounds;
          Alcotest.test_case "multiple pseudonyms per device" `Quick test_sim_multi_pseudonym;
          Alcotest.test_case "repeated rounds keep anonymity" `Quick test_sim_repeated_rounds;
          Alcotest.test_case "rounds advance the clock" `Quick test_sim_rounds_advance_clock;
          Alcotest.test_case "explicit targets" `Quick test_sim_explicit_targets;
          Alcotest.test_case "payload built once per group" `Quick test_sim_payload_built_once;
          Alcotest.test_case "footprint stable over rounds" `Quick test_sim_footprint_stable;
          Alcotest.test_case "second setup adds its own messages" `Quick test_sim_repeated_setup;
          Alcotest.test_case "audit changes no round" `Quick test_sim_audit_changes_nothing;
          Alcotest.test_case "12-device sweep sets up every path" `Quick test_sim_sweep_serve_shape;
          Alcotest.test_case "40-device ring sweep sets up every path" `Quick
            test_sim_sweep_ring_shape;
          Alcotest.test_case "bad fractions refused by name" `Quick test_sim_refuses_bad_fractions;
          Alcotest.test_case "100k acceptance under heap bound" `Slow test_sim_acceptance_100k;
        ] );
    ]
