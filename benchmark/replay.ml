(* The traced run's replay: a sample of the workload's requests rerun
   through the public layer functions on the benchmark's own fixture —
   its own committee genesis, keys and mixnet — with a benchmark span
   around every layer call.  It mirrors the runtime's abstract-channel
   gather, its batched mixnet gather, per-origin and spanning-tree
   aggregation, the summation tree with one device audit, deferred
   relinearization, threshold decryption and committee rotation.

   The replay releases at epsilon = infinity, and every release must
   equal the plaintext oracle: that proves it did the pipeline's work. *)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Bgv = Mycelium_bgv.Bgv
module Zkp = Mycelium_zkp.Zkp
module Ast = Mycelium_query.Ast
module Analysis = Mycelium_query.Analysis
module Parser = Mycelium_query.Parser
module Semantics = Mycelium_query.Semantics
module Sim = Mycelium_mixnet.Sim
module Runtime = Mycelium_core.Runtime
module Committee = Mycelium_core.Committee
module Contribution = Mycelium_core.Contribution
module Summation_tree = Mycelium_core.Summation_tree

type t = {
  rt : Runtime.t;  (** the workload's system: validation and the oracle *)
  graph : Cg.t;
  ctx : Bgv.ctx;
  rng : Rng.t;
  pk : Bgv.public_key;
  relin : Bgv.relin_key;
  srs : Zkp.srs;
  mutable comm : Committee.t;
  mixnet : Sim.t option;
  setup_paths_s : float;
  cached : (string, Analysis.info * Bgv.ciphertext) Hashtbl.t;
      (** serve-warm's cache: sql -> relinearized aggregate *)
  (* counts the spans do not carry *)
  mutable wire_bytes : int;
  mutable discarded : int;
  mutable leaves : int;
  mutable shares : int;
  mutable releases : int;
  mutable mismatches : int;
}

(* Exactly d mixnet targets per vertex: its first d neighbours, padded
   with self-loops — the runtime's rule (§3.2). *)
let d_targets graph d =
  Array.init (Cg.population graph) (fun v ->
      let neigh = List.filteri (fun i _ -> i < d) (List.map fst (Cg.neighbors graph v)) in
      Array.of_list (neigh @ List.init (d - List.length neigh) (fun _ -> v)))

let create rt ~seed =
  let cfg = Runtime.config rt in
  let graph = Runtime.graph rt in
  let n = Cg.population graph in
  let ctx = Bgv.make_ctx cfg.Runtime.params in
  let rng = Rng.create (Rng.mix64 (Int64.of_int seed) 0x7265706c6179L) in
  let relin_degree =
    Option.value cfg.Runtime.relin_degree ~default:(cfg.Runtime.degree_bound + 3)
  in
  let genesis, pk, relin, srs =
    Committee.genesis ctx rng ~size:cfg.Runtime.committee_size
      ~threshold:cfg.Runtime.committee_threshold ~relin_degree
  in
  let comm = Committee.rotate genesis rng ~population:n in
  let mixnet, setup_paths_s =
    match cfg.Runtime.route_through_mixnet with
    | None -> (None, 0.)
    | Some mix ->
      let t0 = Unix.gettimeofday () in
      let sim = Sim.create { mix with Sim.n_devices = n; degree = cfg.Runtime.degree_bound } in
      let (_ : Sim.setup_stats) =
        Sim.setup_paths ~targets:(d_targets graph cfg.Runtime.degree_bound) sim
      in
      (Some sim, Unix.gettimeofday () -. t0)
  in
  {
    rt;
    graph;
    ctx;
    rng;
    pk;
    relin;
    srs;
    comm;
    mixnet;
    setup_paths_s;
    cached = Hashtbl.create 8;
    wire_bytes = 0;
    discarded = 0;
    leaves = 0;
    shares = 0;
    releases = 0;
    mismatches = 0;
  }

let reset_counts t =
  t.wire_bytes <- 0;
  t.discarded <- 0;
  t.leaves <- 0;
  t.shares <- 0;
  t.releases <- 0;
  t.mismatches <- 0

let admit t (req : Workload.request) =
  match Spans.span "query.parse" (fun () -> Parser.parse ~name:req.Workload.name req.Workload.sql) with
  | Error e -> failwith ("replay: parse: " ^ e.Parser.message)
  | Ok q -> (
    match Spans.span "query.validate" (fun () -> Runtime.validate_query t.rt q) with
    | Ok info -> info
    | Error _ -> failwith "replay: an admitted query failed validation")

(* A device encrypts, proves and serializes one row. *)
let build t info rng ~contributor ~edge =
  Spans.span "contribution.build" (fun () ->
      let row =
        Contribution.build t.srs t.ctx rng t.pk info ~dest:(Cg.vertex t.graph contributor) ~edge
      in
      let bytes = Contribution.to_bytes row in
      t.wire_bytes <- t.wire_bytes + Bytes.length bytes;
      bytes)

(* The aggregator parses a row and checks its proofs. *)
let verify t info bytes =
  let row =
    Spans.span "contribution.verify" (fun () ->
        match Contribution.of_bytes t.ctx bytes with
        | Some row when Contribution.verify t.srs t.ctx info row -> Some row
        | Some _ | None -> None)
  in
  if Option.is_none row then t.discarded <- t.discarded + 1;
  row

(* The first edge on the BFS path from [origin] towards [m]. *)
let first_edge t origin parents m =
  let rec walk v =
    match Hashtbl.find_opt parents v with
    | Some p when p = origin -> Some v
    | Some p -> walk p
    | None -> None
  in
  Option.bind (walk m) (fun hop -> Cg.edge t.graph origin hop)

(* Rows per origin over the abstract reliable channel. *)
let gather_abstract t info =
  let hops = info.Analysis.query.Ast.hops in
  Array.init (Cg.population t.graph) (fun origin ->
      let parents = Cg.spanning_parents t.graph origin ~k:hops in
      List.filter_map
        (fun (m, _) ->
          let edge = first_edge t origin parents m in
          Option.map (fun row -> (m, edge, row)) (verify t info (build t info t.rng ~contributor:m ~edge)))
        (Cg.k_hop t.graph origin ~k:hops))

(* Frames are length-prefixed and zero-padded to one size per query,
   as the runtime pads them, so mixnet messages stay indistinguishable. *)
let pad_to size b =
  let out = Bytes.make (size + 4) '\x00' in
  Bytes.set_int32_le out 0 (Int32.of_int (Bytes.length b));
  Bytes.blit b 0 out 4 (Bytes.length b);
  out

let unpad b =
  if Bytes.length b < 4 then None
  else begin
    let l = Int32.to_int (Bytes.get_int32_le b 0) in
    if l < 0 || 4 + l > Bytes.length b then None else Some (Bytes.sub b 4 l)
  end

(* Rows per member per origin for a batch of 1-hop members sharing one
   mixnet round: each message carries one padded frame per member. *)
let gather_mixnet t sim infos =
  let n = Cg.population t.graph in
  let k = Array.length infos in
  let frames = Array.map (Contribution.wire_size t.ctx) infos in
  let offsets = Array.make k 0 in
  for i = 1 to k - 1 do
    offsets.(i) <- offsets.(i - 1) + frames.(i - 1) + 4
  done;
  let body_len = offsets.(k - 1) + frames.(k - 1) + 4 in
  let seeds = Array.map (fun _ -> Rng.int64 t.rng) infos in
  (* Pure per (source, dest) pair: the simulator may call it twice. *)
  let payload_of ~source ~dest =
    let out = Bytes.create body_len in
    Array.iteri
      (fun i info ->
        let row =
          if source = dest then Bytes.make 1 '\x00'
          else
            let rng = Rng.create (Rng.mix64 seeds.(i) (Rng.mix64 (Int64.of_int source) (Int64.of_int dest))) in
            build t info rng ~contributor:source ~edge:(Cg.edge t.graph source dest)
        in
        Bytes.blit (pad_to frames.(i) row) 0 out offsets.(i) (frames.(i) + 4))
      infos;
    out
  in
  let (_ : Sim.round_stats) =
    Spans.span "mixnet.round" (fun () -> Sim.run_query_round_with sim ~payload_of)
  in
  let rows = Array.init k (fun _ -> Array.make n []) in
  List.iter
    (fun (src, dst, body) ->
      if src <> dst then
        Array.iteri
          (fun i info ->
            match unpad (Bytes.sub body offsets.(i) (frames.(i) + 4)) with
            | None -> t.discarded <- t.discarded + 1
            | Some bytes ->
              Option.iter
                (fun row -> rows.(i).(dst) <- (src, Cg.edge t.graph dst src, row) :: rows.(i).(dst))
                (verify t info bytes))
          infos)
    (Sim.deliveries sim);
  rows

(* One §4.4 spanning-tree step, with the aggregator's transcript check
   unless the step is the origin's own. *)
let subtree t ~own ~kids ~check =
  Spans.span "contribution.aggregate_subtree" (fun () ->
      match Contribution.aggregate_subtree t.srs ~own ~children:kids with
      | Error _ -> None
      | Ok (product, proof) ->
        let inputs = match own with Some ct -> ct :: kids | None -> kids in
        if
          check
          && not
               (Zkp.verify_transcript t.srs ~label:"subtree-aggregation" ~context:Bytes.empty
                  ~inputs ~output:product proof)
        then begin
          t.discarded <- t.discarded + 1;
          None
        end
        else Some product)

let tree_aggregate t info rows origin =
  let hops = info.Analysis.query.Ast.hops in
  let parents = Cg.spanning_parents t.graph origin ~k:hops in
  let children = Hashtbl.create 16 in
  Hashtbl.iter
    (fun child parent ->
      Hashtbl.replace children parent
        (child :: Option.value ~default:[] (Hashtbl.find_opt children parent)))
    parents;
  let own = Hashtbl.create 16 in
  List.iter
    (fun (m, _, (row : Contribution.t)) -> Hashtbl.replace own m row.Contribution.ciphertexts.(0))
    rows;
  let products = Hashtbl.create 16 in
  let kids v =
    List.filter_map (Hashtbl.find_opt products)
      (Option.value ~default:[] (Hashtbl.find_opt children v))
  in
  (* Deepest vertices first, so every child's product exists before its
     parent multiplies it in. *)
  List.iter
    (fun (m, _) ->
      Option.iter (Hashtbl.replace products m)
        (subtree t ~own:(Hashtbl.find_opt own m) ~kids:(kids m) ~check:true))
    (List.sort (fun (_, a) (_, b) -> Int.compare b a) (Cg.k_hop t.graph origin ~k:hops));
  let self = Cg.vertex t.graph origin in
  if not (Semantics.origin_gate info self) then
    Spans.span "contribution.build" (fun () -> Bgv.encrypt_zero_polynomial t.ctx t.rng t.pk)
  else begin
    let own_ct =
      Spans.span "contribution.build" (fun () ->
          Bgv.encrypt_value t.ctx t.rng t.pk
            (Semantics.row_value info { Semantics.self; dest = self; edge = None }))
    in
    match subtree t ~own:(Some own_ct) ~kids:(kids origin) ~check:false with
    | Some product -> product
    | None -> failwith "replay: origin aggregation failed"
  end

(* Every origin's aggregate: the summation tree's leaves. *)
let aggregate t info rows =
  Array.init (Cg.population t.graph) (fun origin ->
      if info.Analysis.query.Ast.hops > 1 then tree_aggregate t info rows.(origin) origin
      else
        match
          Spans.span "contribution.aggregate_origin" (fun () ->
              Contribution.aggregate_origin t.srs t.ctx t.rng t.pk info
                ~self:(Cg.vertex t.graph origin)
                ~rows:(List.map (fun (_, e, r) -> (e, r)) rows.(origin)))
        with
        | Ok (ct, _proof) -> ct
        | Error e -> failwith ("replay: origin aggregation: " ^ e))

(* Summation tree, one device's audit, and deferred relinearization. *)
let summation t leaves =
  t.leaves <- t.leaves + Array.length leaves;
  let tree = Spans.span "summation_tree.build" (fun () -> Summation_tree.build leaves) in
  let probe = Rng.int t.rng (Array.length leaves) in
  let audited =
    Spans.span "summation_tree.audit" (fun () ->
        Summation_tree.verify_audit leaves.(probe) ~root_hash:(Summation_tree.root_hash tree)
          ~root_sum:(Summation_tree.root_sum tree) ~leaf_count:(Summation_tree.leaf_count tree)
          (Summation_tree.audit tree probe))
  in
  if not audited then failwith "replay: summation-tree audit failed";
  let sum = Summation_tree.root_sum tree in
  if Bgv.degree sum <= 1 then sum
  else Spans.span "bgv.relinearize" (fun () -> Bgv.relinearize t.ctx t.relin sum)

let check t info (r : Committee.release) =
  let exact = Runtime.exact_bins_for_tests t.rt info in
  t.releases <- t.releases + 1;
  t.shares <- t.shares + Array.length r.Committee.participants;
  if
    not
      (Array.length r.Committee.noisy_bins = Array.length exact
      && Array.for_all2 (fun b e -> Float.equal b (float_of_int e)) r.Committee.noisy_bins exact)
  then t.mismatches <- t.mismatches + 1

let rotate t =
  t.comm <-
    Spans.span "committee.rotate" (fun () ->
        Committee.rotate t.comm t.rng ~population:(Cg.population t.graph))

let release_one t info ct =
  match
    Spans.span "committee.decrypt" (fun () ->
        Committee.decrypt_and_release t.comm t.rng t.ctx ~info ~epsilon:Float.infinity ct)
  with
  | Error e -> failwith ("replay: decryption: " ^ e)
  | Ok r ->
    rotate t;
    check t info r

let release_batch t members =
  let batch =
    List.map
      (fun (info, ct) ->
        ({ Committee.b_info = info; b_epsilon = Float.infinity; b_noise_rng = Rng.create 0L }, ct))
      members
  in
  match
    Spans.span "committee.decrypt_batch" (fun () ->
        Committee.decrypt_batch t.comm t.rng t.ctx ~members:batch)
  with
  | Error e -> failwith ("replay: batch decryption: " ^ e)
  | Ok releases ->
    rotate t;
    List.iter2 (fun (info, _) r -> check t info r) members releases

let aggregate_abstract t info = summation t (aggregate t info (gather_abstract t info))

(* direct-mixed: one Runtime.run_query. *)
let direct t req =
  let info = admit t req in
  release_one t info (aggregate_abstract t info)

(* serve-mixnet: one batch of cache misses sharing a mixnet round and a
   decryption session. *)
let mixnet_batch t reqs =
  match t.mixnet with
  | None -> invalid_arg "Replay.mixnet_batch: the workload has no mixnet"
  | Some sim ->
    let infos = Array.of_list (List.map (admit t) reqs) in
    let rows = gather_mixnet t sim infos in
    release_batch t
      (Array.to_list (Array.mapi (fun i info -> (info, summation t (aggregate t info rows.(i)))) infos))

(* serve-warm's cache contents, computed once outside any measurement. *)
let prime t reqs =
  List.iter
    (fun (req : Workload.request) ->
      let info = admit t req in
      Hashtbl.replace t.cached req.Workload.sql (info, aggregate_abstract t info))
    reqs

(* serve-warm: one batch of cache hits — admission, then straight to
   the shared decryption session. *)
let warm_batch t reqs =
  release_batch t
    (List.map
       (fun (req : Workload.request) ->
         let (_ : Analysis.info) = admit t req in
         Hashtbl.find t.cached req.Workload.sql)
       reqs)
