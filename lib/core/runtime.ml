module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Schema = Mycelium_graph.Schema
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Dp = Mycelium_dp.Dp
module Zkp = Mycelium_zkp.Zkp
module Merkle = Mycelium_crypto.Merkle
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Parser = Mycelium_query.Parser
module Ast = Mycelium_query.Ast
module Sim = Mycelium_mixnet.Sim
module Bulletin = Mycelium_mixnet.Bulletin
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs

type config = {
  params : Params.t;
  committee_size : int;
  committee_threshold : int;
  epsilon_budget : float;
  degree_bound : int;
  seed : int64;
  byzantine_fraction : float;
  route_through_mixnet : Sim.config option;
  relin_degree : int option;
      (** override the relinearization-key degree bound (multi-hop
          queries grow products to the neighborhood-ball size) *)
  accounting : Dp.accounting;
  faults : Fault_plan.t option;
      (** deterministic fault plan injected into every query this
          runtime executes; [None] disables injection entirely *)
  ledger : string option;
      (** append one audit record per query to this JSONL file (see
          DESIGN.md §13 for the schema).  Like tracing, the ledger
          observes the pipeline and never feeds back into results. *)
}

let default_config =
  {
    params = Params.test_medium;
    committee_size = 10;
    committee_threshold = 4;
    epsilon_budget = 10.;
    degree_bound = 6;
    seed = 1L;
    byzantine_fraction = 0.;
    route_through_mixnet = None;
    relin_degree = None;
    accounting = Dp.Basic;
    faults = None;
    ledger = None;
  }

type t = {
  cfg : config;
  ctx : Bgv.ctx;
  graph : Cg.t;
  pk : Bgv.public_key;
  relin : Bgv.relin_key;
  srs : Zkp.srs;
  mutable comm : Committee.t;
  budget : Dp.budget;
  byzantine : bool array;
  bulletin : Bulletin.t;
  mixnet : Sim.t option;
  mutable mixnet_ready : bool;
  ledger : Obs.Ledger.t option;
  mutable queries_run : int;
}

let config t = t.cfg
let budget t = t.budget
let graph t = t.graph

(* Hand the key to the next device committee (§4.2): the genesis
   parties' hand-off at set-up, and one after every released batch. *)
let rotate_committee cfg comm ~population =
  let generation = Committee.generation comm + 1 in
  Committee.rotate comm (Rng.keyed cfg.seed Rng.Committee_rotation [ generation ]) ~population

(* The relinearization key's degree.  An origin's product has degree
   d^hops + 1 (one row per vertex of its ball), and the noise model
   admits d^hops up to [Analysis.max_multiplications]; the default key
   reaches the largest such product and no further (at least degree 2),
   so admission never refuses a feasible shape for the key's sake. *)
let relin_degree cfg =
  match cfg.relin_degree with
  | Some k -> k
  | None ->
    let budget = Analysis.max_multiplications cfg.params and d = cfg.degree_bound in
    (* the largest d^h, h >= 1, within the budget; 0 when d alone is over *)
    let rec widest m = if d > 1 && m <= budget / d then widest (m * d) else m in
    max 2 (1 + if d <= budget then widest d else 0)

let init cfg graph =
  Params.validate cfg.params;
  (* Every committee member is a device: refuse a population too small
     to seat one before any key is generated. *)
  let population = Cg.population graph in
  if population < cfg.committee_size then
    invalid_arg
      (Printf.sprintf "Runtime.init: population %d is smaller than the committee size %d"
         population cfg.committee_size);
  if not (cfg.byzantine_fraction >= 0. && cfg.byzantine_fraction <= 1.) then
    invalid_arg
      (Printf.sprintf "Runtime.init: byzantine_fraction %g is outside [0, 1]" cfg.byzantine_fraction);
  Obs.span Obs.Names.runtime_init @@ fun () ->
  (* Graphs loaded from external data may exceed d; the sensitivity
     analysis (§3.2) needs every vertex at degree <= d, so clip
     deterministically instead of running with broken sensitivity. *)
  let graph =
    if Cg.max_degree graph > cfg.degree_bound then
      Cg.clip_to_degree_bound ~bound:cfg.degree_bound graph
    else graph
  in
  (* Every set-up draw comes from a stream keyed by its purpose, so
     the order below is free: the simulator goes first, and refuses a
     bad hop fraction before any BGV key is generated. *)
  let mixnet =
    Option.map
      (fun (mix_cfg : Sim.config) ->
        Sim.create
          { mix_cfg with Sim.n_devices = population; degree = cfg.degree_bound; seed = cfg.seed })
      cfg.route_through_mixnet
  in
  let ctx = Bgv.make_ctx cfg.params in
  let genesis, pk, relin, srs =
    Committee.genesis ctx (Rng.keyed cfg.seed Rng.Genesis []) ~size:cfg.committee_size
      ~threshold:cfg.committee_threshold ~relin_degree:(relin_degree cfg)
  in
  let comm = rotate_committee cfg genesis ~population in
  let n = population in
  let n_byz = int_of_float (Float.round (float_of_int n *. cfg.byzantine_fraction)) in
  let byzantine = Array.make n false in
  Array.iter
    (fun i -> byzantine.(i) <- true)
    (Rng.sample_without_replacement (Rng.keyed cfg.seed Rng.Byzantine_set []) n_byz n);
  {
    cfg;
    ctx;
    graph;
    pk;
    relin;
    srs;
    comm;
    budget = Dp.budget_create ~accounting:cfg.accounting ~total:cfg.epsilon_budget ();
    byzantine;
    bulletin = Bulletin.create ();
    mixnet;
    mixnet_ready = false;
    ledger = Option.map Obs.Ledger.open_ cfg.ledger;
    queries_run = 0;
  }

type query_error =
  | Parse_error of string
  | Analysis_error of string
  | Infeasible of string
  | Budget_exhausted of float
  | Invalid_epsilon of float
  | Pipeline_error of string

(* Checked once at admission by both entry points ([run_batch] and the
   serving layer's [submit]), before any charge: a NaN would poison
   the budget's running sums, and zero or a negative value has no
   meaning as a privacy loss. *)
let check_epsilon eps =
  if eps = Float.infinity || (Float.is_finite eps && eps > 0.) then Ok ()
  else Error (Invalid_epsilon eps)

type query_result = {
  info : Analysis.info;
  result : Semantics.result;
  noisy_bins : float array;
  discarded_contributions : int;
  origins_included : int;
  committee_generation : int;
  committee_shares : int;
      (* decryption shares actually combined for the release *)
  mixnet_losses : int;
  mixnet_bytes : int;
      (* bytes deposited at aggregator mailboxes this query (0 over the
         abstract channel) *)
  c_rounds : int;
      (* communication cost in C-rounds: 2*hops vertex-program rounds,
         each k_mix+1 C-rounds (§3.5, §6.3) *)
  degradation : Injector.report;
}

(* Pad every contribution of a query to one wire size so mixnet
   messages are indistinguishable. *)
let pad_to size b =
  if Bytes.length b > size then invalid_arg "Runtime: contribution exceeds frame";
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

(* One contributor's encrypted row for [info], sent to [origin], from
   the row's own keyed stream; a Byzantine contributor submits an
   over-weighted value with a forged proof (§4.6's attack). *)
let build_row t ~qid info ~origin contributor edge =
  let rng = Rng.keyed t.cfg.seed Rng.Contribution_row [ qid; contributor; origin ] in
  if t.byzantine.(contributor) then
    Contribution.build_malicious t.ctx rng t.pk info ~exponent:1 ~coeff:200
  else
    Contribution.build t.srs t.ctx rng t.pk info ~dest:(Cg.vertex t.graph contributor) ~edge

(* Collect, for every origin, the verified neighbor rows over the
   abstract reliable channel: used when the experiment under
   measurement is the query pipeline, not the mixnet, and for
   multi-hop queries. Fault injection makes the channel droppable:
   each row delivery is retried with exponential backoff up to the
   plan's budget, and churned contributors' rows get §6.3
   default-value substitution (the row is absent from the local
   aggregate).

   Three phases keep the report and rows deterministic: (1) a
   sequential pass makes every injector decision in the original
   iteration order; (2) the surviving (origin, contributor) builds —
   the dominant cost: BGV encrypt plus ZKP prove/verify — run on the
   pool, each from its own keyed row stream; (3) a sequential merge
   assembles rows and counters in the original order.

   Returns (rows per origin, discarded count, transit losses, mixnet
   bytes); the last two are always 0 here. *)
let gather_rows t ~qid inj info =
  let n = Cg.population t.graph in
  let pool = Pool.default () in
  let discarded = ref 0 in
  let rows = Array.make n [] in
  let tasks = ref [] in
  for origin = 0 to n - 1 do
    if not (Injector.device_offline inj ~device:origin) then begin
      let members = Cg.k_hop t.graph origin ~k:info.Analysis.query.Ast.hops in
      let parents = Cg.spanning_parents t.graph origin ~k:info.Analysis.query.Ast.hops in
      let first_edge m =
        let rec walk v =
          match Hashtbl.find_opt parents v with
          | Some p when p = origin -> Some v
          | Some p -> walk p
          | None -> None
        in
        match walk m with Some hop -> Cg.edge t.graph origin hop | None -> None
      in
      List.iter
        (fun (m, _dist) ->
          if Injector.device_offline inj ~device:m then Injector.note_substituted inj
          else if not (Injector.send inj ~round:0 ~source:m ~dest:origin) then
            (* Permanently lost after the retry budget: same shape as a
               missing row. *)
            ()
          else tasks := (origin, m, first_edge m) :: !tasks)
        members
    end
  done;
  let tasks = Array.of_list (List.rev !tasks) in
  let built =
    Pool.map_array pool
      (fun (origin, m, edge) ->
        let row = build_row t ~qid info ~origin m edge in
        (Contribution.verify t.srs t.ctx info row, row))
      tasks
  in
  Array.iteri
    (fun i (ok, row) ->
      let origin, m, edge = tasks.(i) in
      if ok then rows.(origin) <- (m, edge, row) :: rows.(origin) else incr discarded)
    built;
  (rows, !discarded, 0, 0)

(* The stages a batch member runs after admission, in the order they
   run.  Each is one span in the trace and one duration in the
   member's ledger row, under the same name (DESIGN.md §8, §13). *)
type stage =
  | Gather  (* [gather_rows], or the batch's mixnet round *)
  | Aggregate  (* per-origin aggregation on the pool *)
  | Sumtree_build  (* [Summation_tree.build] and the bulletin post *)
  | Sumtree_audit  (* the probe audit and the restart drill *)
  | Relinearize  (* the deferred relinearization (§5) *)
  | Decrypt  (* the batch's shared [Committee.decrypt_batch] session *)
  | Rotate  (* the hand-off after a released batch *)

let stages = [| Gather; Aggregate; Sumtree_build; Sumtree_audit; Relinearize; Decrypt; Rotate |]

(* A stage's slot in a member's durations (its position in [stages])
   and its name, the span's and the ledger key's. *)
let stage_slot = function
  | Gather -> (0, "query.gather")
  | Aggregate -> (1, "query.aggregate")
  | Sumtree_build -> (2, "summation_tree.build")
  | Sumtree_audit -> (3, "summation_tree.audit")
  | Relinearize -> (4, "bgv.relinearize")
  | Decrypt -> (5, "committee.decrypt_batch")
  | Rotate -> (6, "committee.rotate")

(* A member's stage durations (seconds, by slot; 0 for a stage it
   skipped) and the charge latch, for the audit ledger.
   Diagnostic only: filled in as the pipeline runs, read once when the
   ledger row is written, never fed back into results. *)
type timing = {
  stage_s : float array;
  mutable charged : bool;
      (* set exactly when [Dp.budget_charge] succeeds, so the ledger
         reflects spend even for queries that fail after the charge *)
}

(* Run [f] as [stage] under its span, and credit its wall time, which
   the ledger needs whether or not tracing is on, to the members of
   [shares] in proportion to their weights: a member's own stage is
   [[ (timing, 1.) ]], and a stage the batch shares is split. *)
let phase shares ?attrs stage f =
  let slot, name = stage_slot stage in
  let t0 = Obs.now_s () in
  let r = Obs.span ?attrs name f in
  let dt = Obs.now_s () -. t0 in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. shares in
  List.iter (fun (tm, w) -> tm.stage_s.(slot) <- dt *. (w /. total)) shares;
  r

(* Static admission checks of [run_batch], exported so the serving
   layer can validate before it charges: analysis, parameter
   feasibility, predicate placement and the multi-hop restrictions.
   Pure — never touches the budget or any Rng stream. *)
let validate_query t query =
  let ( let* ) = Result.bind in
  let* info =
    match Analysis.analyze ~degree_bound:t.cfg.degree_bound query with
    | Ok i -> Ok i
    | Error e -> Error (Analysis_error e)
  in
  let* () =
    match Analysis.feasible info t.cfg.params with
    | Ok () -> Ok ()
    | Error e -> Error (Infeasible e)
  in
  let* () =
    (* An origin's product multiplies at most one row per vertex of its
       ball, the origin's own included: degree multiplications + 1,
       which the aggregator's relinearization key must reach. *)
    let degree = info.Analysis.multiplications + 1 and key = Bgv.relin_max_degree t.relin in
    if degree > key then
      Error
        (Infeasible
           (Printf.sprintf "aggregate of degree %d exceeds the relinearization key's degree %d"
              degree key))
    else Ok ()
  in
  let* () =
    (* Predicate placement must succeed before any device computes. *)
    match Semantics.split_where query.Ast.where with
    | Ok _ -> Ok ()
    | Error e -> Error (Analysis_error e)
  in
  let* () =
    (* The spanning-tree engine covers the paper's multi-hop query
       class (Q1-style ungrouped counts/sums); §4.5's sequences and
       GROUP BY packing are 1-hop constructs. *)
    if
      query.Ast.hops > 1
      && (Semantics.is_ratio info
         || info.Analysis.group_kind <> Analysis.Group_none
         || Contribution.sequence_length info > 1)
    then
      Error
        (Analysis_error
           "multi-hop queries support only ungrouped aggregation without cross-column comparisons")
    else Ok ()
  in
  Ok info

type prepared = {
  p_info : Analysis.info;
  p_ct : Bgv.ciphertext;
  p_origins_included : int;
  p_discarded : int;
  p_mixnet_losses : int;
  p_mixnet_bytes : int;
  p_degradation : Injector.report;
}

(* Every origin aggregates its neighborhood and submits (Byzantine
   origins submit garbage with forged transcript proofs), then the
   aggregator builds the §4.2 summation tree — probe audit and restart
   drill included — and performs the §5 deferred relinearization.
   Returns the member's degree-1 aggregate with its counters.

   The gathered counters arrive as separate arguments, not as the
   gather tuple, so nothing keeps [rows] reachable once the
   aggregation pool is done with them. *)
let prepare t ~qid ~tm inj info ~rows ~discarded_rows ~losses ~bytes =
  let n = Cg.population t.graph in
  (* Multi-hop local aggregation follows the §4.4 spanning tree:
     vertices at distance k send their (verified) contributions to
     their upstream neighbors, interior vertices multiply children with
     their own row and prove the product, and so on up to the origin.
     A Byzantine interior vertex's forged product is caught by the
     aggregator and its whole subtree is lost — the bias §4.7
     acknowledges. *)
  let tree_aggregate ~rng origin =
    let local_discarded = ref 0 in
    let hops = info.Analysis.query.Ast.hops in
    let parents = Cg.spanning_parents t.graph origin ~k:hops in
    let members = Cg.k_hop t.graph origin ~k:hops in
    let children = Hashtbl.create 16 in
    (* lint: allow determinism — inverts the parents map; OCaml hash tables
       iterate reproducibly for a fixed insertion sequence (no seed), and
       parents is built deterministically, so child order is stable *)
    Hashtbl.iter
      (fun child parent ->
        Hashtbl.replace children parent (child :: Option.value ~default:[] (Hashtbl.find_opt children parent)))
      parents;
    let contribution_of = Hashtbl.create 16 in
    List.iter (fun (m, _, (row : Contribution.t)) -> Hashtbl.replace contribution_of m row) rows.(origin);
    (* Partial products, deepest first. *)
    let by_depth = List.sort (fun (_, d1) (_, d2) -> Int.compare d2 d1) members in
    let products = Hashtbl.create 16 in
    List.iter
      (fun (m, _) ->
        if not (t.byzantine.(m)) then begin
          let own =
            Option.map (fun (r : Contribution.t) -> r.Contribution.ciphertexts.(0))
              (Hashtbl.find_opt contribution_of m)
          in
          let kids =
            List.filter_map (fun c -> Hashtbl.find_opt products c)
              (Option.value ~default:[] (Hashtbl.find_opt children m))
          in
          match Contribution.aggregate_subtree t.srs ~own ~children:kids with
          | Ok (product, proof) ->
            if Zkp.verify_transcript t.srs ~label:"subtree-aggregation" ~context:Bytes.empty
                 ~inputs:(match own with Some ct -> ct :: kids | None -> kids)
                 ~output:product proof
            then Hashtbl.replace products m product
            else incr local_discarded
          | Error _ -> ()
        end
        else begin
          (* Byzantine interior vertex: garbage product, forged proof —
             rejected, subtree lost. *)
          incr local_discarded
        end)
      by_depth;
    (* The origin multiplies its own row with its children's products
       (gate and shifts handled by aggregate_origin with the direct
       children's products standing in as rows is not possible for
       products — do it directly). *)
    let self = Cg.vertex t.graph origin in
    let result =
      if not (Semantics.origin_gate info self) then
        Ok (Bgv.encrypt_zero_polynomial t.ctx rng t.pk)
      else begin
        let own_ctx_row = { Semantics.self; dest = self; edge = None } in
        let own_ct = Bgv.encrypt_value t.ctx rng t.pk (Semantics.row_value info own_ctx_row) in
        let kids =
          List.filter_map (fun c -> Hashtbl.find_opt products c)
            (Option.value ~default:[] (Hashtbl.find_opt children origin))
        in
        match Contribution.aggregate_subtree t.srs ~own:(Some own_ct) ~children:kids with
        | Ok (product, _proof) -> Ok product
        | Error e -> Error e
      end
    in
    (result, !local_discarded)
  in
  (* Per-origin aggregation (BGV ops plus transcript proofs) runs on
     the pool: each origin's work is pure given its own keyed stream
     and read-only runtime state.  Injector lookups inside the
     tasks are stateless plan queries; the report counters are applied
     in the sequential merge below, in ascending-origin order, so the
     degradation report is identical at any domain count. *)
  let pool = Pool.default () in
  let own = [ (tm, 1.) ] in
  let origin_cts, origins_included, discarded =
    phase own Aggregate ~attrs:[ ("origins", Obs.Json.Int n) ] @@ fun () ->
    let outcomes =
      Pool.init pool n (fun origin ->
          let rng = Rng.keyed t.cfg.seed Rng.Origin_aggregate [ qid; origin ] in
          if Injector.device_offline inj ~device:origin then
            (* Offline origin: the aggregator substitutes the §6.3 default
               value — an encryption of zero — so the leaf count (and every
               honest device's audit position) is unchanged. *)
            `Substituted (Bgv.encrypt_zero_polynomial t.ctx rng t.pk)
          else if t.byzantine.(origin) || Injector.contribution_forged inj ~device:origin
          then begin
            let bad = Contribution.build_malicious t.ctx rng t.pk info ~exponent:2 ~coeff:999 in
            let forged = Zkp.forge rng in
            (* The aggregator checks the transcript proof and discards. *)
            if
              Zkp.verify_transcript t.srs ~label:"origin-aggregation"
                ~context:(Bytes.of_string info.Analysis.query.Ast.name)
                ~inputs:[ bad.Contribution.ciphertexts.(0) ]
                ~output:bad.Contribution.ciphertexts.(0) forged
            then `Forged_accepted bad.Contribution.ciphertexts.(0)
            else `Forged_rejected t.byzantine.(origin)
          end
          else if info.Analysis.query.Ast.hops > 1 then begin
            match tree_aggregate ~rng origin with
            | Ok ct, dropped -> `Included (ct, dropped)
            | Error _, dropped -> `Failed dropped
          end
          else begin
            match
              Contribution.aggregate_origin t.srs t.ctx rng t.pk info
                ~self:(Cg.vertex t.graph origin)
                ~rows:(List.map (fun (_, e, r) -> (e, r)) rows.(origin))
            with
            | Ok (ct, _proof) -> `Included (ct, 0)
            | Error _ -> `Failed 0
          end)
    in
    let discarded = ref discarded_rows in
    let origin_cts = ref [] in
    let origins_included = ref 0 in
    Array.iter
      (function
        | `Substituted ct ->
          Injector.note_substituted inj;
          origin_cts := ct :: !origin_cts
        | `Forged_accepted ct -> origin_cts := ct :: !origin_cts
        | `Forged_rejected byzantine ->
          incr discarded;
          if not byzantine then Injector.note_forged_rejected inj
        | `Included (ct, dropped) ->
          discarded := !discarded + dropped;
          incr origins_included;
          origin_cts := ct :: !origin_cts
        | `Failed dropped ->
          discarded := !discarded + dropped;
          incr discarded)
      outcomes;
    (!origin_cts, !origins_included, !discarded)
  in
  match origin_cts with
  | [] -> Error (Pipeline_error "no valid origin contributions")
  | _ ->
    (* Summation tree (§4.2): the aggregator sums up a committed binary
       tree so every device can audit that its contribution is included
       exactly once; the root goes on the bulletin board. *)
    let leaves = Array.of_list origin_cts in
    let tree =
      phase own Sumtree_build ~attrs:[ ("leaves", Obs.Json.Int (Array.length leaves)) ]
      @@ fun () ->
      let tree = Summation_tree.build leaves in
      ignore (Bulletin.post t.bulletin ~author:"aggregator" (Summation_tree.root_hash tree));
      tree
    in
    let tree =
      phase own Sumtree_audit @@ fun () ->
      (* Play one device's audit as a self-check of the commitment. *)
      let probe =
        Rng.int (Rng.keyed t.cfg.seed Rng.Audit_probe [ qid ]) (Array.length leaves)
      in
      if
        not
          (Summation_tree.verify_audit leaves.(probe)
             ~root_hash:(Summation_tree.root_hash tree)
             ~root_sum:(Summation_tree.root_sum tree)
             ~leaf_count:(Summation_tree.leaf_count tree)
             (Summation_tree.audit tree probe))
      then failwith "Runtime: summation-tree audit failed (aggregator bug)";
      (* Aggregator-restart drill: each injected crash rebuilds the tree
         from the durable leaves; the recovered tree must commit to the
         identical root or the aggregator would fail its own audits. *)
      match t.cfg.faults with
      | Some plan when plan.Fault_plan.aggregator_restarts > 0 ->
        let recovered = ref tree in
        for _ = 1 to plan.Fault_plan.aggregator_restarts do
          Injector.note_aggregator_restart inj;
          recovered := Summation_tree.rebuild !recovered
        done;
        if
          not
            (Bytes.equal
               (Summation_tree.root_hash !recovered)
               (Summation_tree.root_hash tree))
        then failwith "Runtime: restarted aggregator diverged from its committed root";
        !recovered
      | _ -> tree
    in
    let sum = Summation_tree.root_sum tree in
    (* Deferred relinearization at the aggregator (§5). *)
    let linear =
      phase own Relinearize @@ fun () ->
      if Bgv.degree sum <= 1 then sum else Bgv.relinearize t.ctx t.relin sum
    in
    Ok
      {
        p_info = info;
        p_ct = linear;
        p_origins_included = origins_included;
        p_discarded = discarded;
        p_mixnet_losses = losses;
        p_mixnet_bytes = bytes;
        p_degradation = Injector.report inj;
      }

let degradation_json (r : Injector.report) =
  Obs.Json.Obj
    [
      ("substituted_contributions", Obs.Json.Int r.Injector.substituted_contributions);
      ("dropped_messages", Obs.Json.Int r.Injector.dropped_messages);
      ("delayed_messages", Obs.Json.Int r.Injector.delayed_messages);
      ("channel_retries", Obs.Json.Int r.Injector.channel_retries);
      ("backoff_units", Obs.Json.Int r.Injector.backoff_units);
      ("excluded_committee_members", Obs.Json.Int r.Injector.excluded_committee_members);
      ("forged_rejected", Obs.Json.Int r.Injector.forged_rejected);
      ("aggregator_restarts", Obs.Json.Int r.Injector.aggregator_restarts);
      ("decryption_attempts", Obs.Json.Int r.Injector.decryption_attempts);
    ]

(* One append-only audit record per query (DESIGN.md §13).  [epsilon]
   is [Null] unless the budget charge actually happened, so summing the
   "epsilon" field over a ledger reproduces [Dp.budget_spent] exactly —
   including queries that failed after the charge.  (It also keeps the
   encoding total: epsilon = infinity is never charged, and IEEE
   infinities are not representable in JSON.) *)
let ledger_entry t ~qid ~query ~epsilon ~tm res =
  let open Obs.Json in
  let status, error_kind =
    match res with
    | Ok _ -> ("ok", None)
    | Error (Budget_exhausted _) -> ("rejected", Some "budget_exhausted")
    | Error (Invalid_epsilon _) -> ("rejected", Some "invalid_epsilon")
    | Error (Parse_error _) -> ("error", Some "parse")
    | Error (Analysis_error _) -> ("error", Some "analysis")
    | Error (Infeasible _) -> ("error", Some "infeasible")
    | Error (Pipeline_error _) -> ("error", Some "pipeline")
  in
  let accounting_fields =
    match t.cfg.accounting with
    | Dp.Basic -> [ ("accounting", Str "basic") ]
    | Dp.Advanced { delta } -> [ ("accounting", Str "advanced"); ("delta", Num delta) ]
  in
  let result_fields =
    match res with
    | Ok r ->
      [
        ("sensitivity", Num r.info.Analysis.sensitivity);
        ( "clip",
          match r.info.Analysis.clip with
          | Some (lo, hi) -> List [ Num lo; Num hi ]
          | None -> Null );
        ("influence_bound", Int r.info.Analysis.influence_bound);
        ("origins_included", Int r.origins_included);
        ("discarded_contributions", Int r.discarded_contributions);
        ("mixnet_bytes", Int r.mixnet_bytes);
        ("mixnet_losses", Int r.mixnet_losses);
        ("c_rounds", Int r.c_rounds);
        ( "committee",
          Obj
            [
              ("size", Int t.cfg.committee_size);
              ("threshold", Int t.cfg.committee_threshold);
              ("shares_used", Int r.committee_shares);
              ("generation", Int r.committee_generation);
            ] );
        ("degradation", degradation_json r.degradation);
      ]
    | Error _ -> (
      match error_kind with Some k -> [ ("error", Str k) ] | None -> [])
  in
  Obj
    ([
       ("schema", Str "mycelium-ledger/1");
       ("query", Int qid);
       ("name", Str query.Ast.name);
       ("hops", Int query.Ast.hops);
       ("status", Str status);
       ("charged", Bool tm.charged);
       ("epsilon", if tm.charged then Num epsilon else Null);
       ("degree_bound", Int t.cfg.degree_bound);
     ]
    @ accounting_fields
    @ [
        ( "stages",
          Obj
            (Array.to_list
               (Array.map
                  (fun st ->
                    let slot, name = stage_slot st in
                    (name, Num tm.stage_s.(slot)))
                  stages)) );
      ]
    @ result_fields
    @ [
        ("budget_total", Num t.cfg.epsilon_budget);
        ("budget_spent", Num (Dp.budget_spent t.budget));
        ("budget_remaining", Num (Dp.budget_remaining t.budget));
      ])

(* ------------------------------------------------------------------ *)
(* Execution: every query runs as a member of a batch (DESIGN.md §14)  *)
(* ------------------------------------------------------------------ *)

type batch_item = {
  bi_query : Ast.t;
  bi_epsilon : float;
  bi_noise_seed : int64;
  bi_cached : prepared option;
}

let shape (query : Ast.t) = Ast.to_string { query with Ast.name = "" }

(* A member's logical transit-fault coordinate, fed to
   [Fault_plan.send_dropped] in place of the shared physical mixnet
   round: a digest of the query's shape. The same query therefore sees
   the same drop decisions alone or in any batch, at any position, and
   a recomputation after a cache miss reproduces the cached aggregate
   bit for bit. *)
let fault_round query =
  let d = Digest.string (shape query) in
  let b i = Char.code d.[i] in
  (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)) land 0x3FFFFFFF

(* Gather rows for every 1-hop member in a single mixnet query round:
   each (source, dest) message carries the concatenation of one padded
   frame per member, so the whole batch pays one round-trip of
   C-rounds instead of one per query.

   Injected transit loss is applied per member at slice time, from the
   member's own [fault_round] — never the shared physical round
   counter — with per-replica-copy drop semantics: a message is lost
   only when every copy is dropped.  This is what makes a member's
   gathered rows (and so its released bytes) independent of who shares
   the physical round.  (The simulator's own churn/malicious losses,
   when configured, remain physical and hit the whole concatenated
   frame.) *)
let gather_rows_mixnet_batch t mix members =
  (* members : (qid, info, injector) array; every query in it has
     hops = 1 (checked by the caller). *)
  let n = Cg.population t.graph in
  let pool = Pool.default () in
  let k = Array.length members in
  if not t.mixnet_ready then begin
    let targets =
      Array.init n (fun v ->
          let neigh = List.map fst (Cg.neighbors t.graph v) in
          (* Exactly d targets per vertex (§3.2): clip an over-degree
             vertex to its first d neighbors, pad an under-degree one
             with self-loops.  Without the clip a vertex with more than
             d contacts would emit more than d circuits and break the
             sensitivity analysis. *)
          let neigh = List.filteri (fun i _ -> i < t.cfg.degree_bound) neigh in
          let pad = t.cfg.degree_bound - List.length neigh in
          Array.of_list (neigh @ List.init (max 0 pad) (fun _ -> v)))
    in
    ignore (Sim.setup_paths ~targets mix);
    t.mixnet_ready <- true
  end;
  (* §6.3 default-value substitution for churned senders, decided up
     front from each member's plan so its report does not depend on
     delivery outcomes. *)
  Array.iter
    (fun (_, _, inj) ->
      if Injector.active inj then
        for v = 0 to n - 1 do
          if not (Injector.device_offline inj ~device:v) then
            List.iter
              (fun (u, _) ->
                if Injector.device_offline inj ~device:u then
                  Injector.note_substituted inj)
              (Cg.neighbors t.graph v)
        done)
    members;
  let fault_rounds = Array.map (fun (_, info, _) -> fault_round info.Analysis.query) members in
  let frames = Array.map (fun (_, info, _) -> Contribution.wire_size t.ctx info) members in
  let padded = Array.map (fun f -> f + 4) frames in
  let offsets = Array.make k 0 in
  for i = 1 to k - 1 do
    offsets.(i) <- offsets.(i - 1) + padded.(i - 1)
  done;
  let body_len = offsets.(k - 1) + padded.(k - 1) in
  (* Pure per-pair payload (the simulator calls it once per pair, on
     any pool domain): one padded frame per member, concatenated at
     fixed offsets. *)
  let payload_of ~source ~dest =
    let out = Bytes.create body_len in
    Array.iteri
      (fun i (qid, info, _) ->
        let frame =
          if source = dest then pad_to frames.(i) (Bytes.make 1 '\x00')
          else
            pad_to frames.(i)
              (Contribution.to_bytes
                 (build_row t ~qid info ~origin:dest source (Cg.edge t.graph source dest)))
        in
        Bytes.blit frame 0 out offsets.(i) padded.(i))
      members;
    out
  in
  let stats = Sim.run_query_round_with mix ~payload_of in
  let delivered = Array.of_list (Sim.deliveries mix) in
  let replicas =
    match t.cfg.route_through_mixnet with Some c -> c.Sim.replicas | None -> 1
  in
  let expected = Cg.edge_count t.graph * 2 in
  (* Parse + ZKP-verify every member's slice of every delivery in
     parallel (pure given the bytes and the stateless plan decisions),
     then fold the verdicts in delivery order per member so counters
     and per-origin row order never depend on the domain count. *)
  let verdicts =
    Pool.map_array pool
      (fun (src, dst, body) ->
        if src = dst then Array.make k `Self_loop
        else
          Array.mapi
            (fun i (_, info, inj) ->
              let dropped_copies =
                if not (Injector.active inj) then 0
                else begin
                  let d = ref 0 in
                  for copy = 0 to replicas - 1 do
                    if
                      Fault_plan.send_dropped (Injector.plan inj) ~round:fault_rounds.(i)
                        ~source:src ~dest:dst ~attempt:copy
                    then incr d
                  done;
                  !d
                end
              in
              if dropped_copies >= replicas then `Lost dropped_copies
              else if Injector.device_offline inj ~device:src then `Offline dropped_copies
              else begin
                let slice = Bytes.sub body offsets.(i) padded.(i) in
                match Option.bind (unpad slice) (Contribution.of_bytes t.ctx) with
                | Some row ->
                  if Contribution.verify t.srs t.ctx info row then `Row (dropped_copies, row)
                  else `Bad_proof dropped_copies
                | None -> `Bad_bytes dropped_copies
              end)
            members)
      delivered
  in
  Array.init k (fun i ->
      let _, _, inj = members.(i) in
      let rows = Array.make n [] in
      let discarded = ref 0 and arrived = ref 0 in
      let note_drops c =
        if Injector.active inj then
          for _ = 1 to c do
            Injector.note_dropped inj
          done
      in
      Array.iteri
        (fun j verdict_row ->
          let src, dst, _ = delivered.(j) in
          match verdict_row.(i) with
          | `Self_loop -> ()
          | `Lost c -> note_drops c
          | `Offline c ->
            (* Already counted as substituted above; the delivered
               bytes of an offline device are ignored. *)
            note_drops c;
            incr arrived
          | `Row (c, row) ->
            note_drops c;
            incr arrived;
            rows.(dst) <- (src, Cg.edge t.graph dst src, row) :: rows.(dst)
          | `Bad_proof c ->
            note_drops c;
            incr arrived;
            incr discarded
          | `Bad_bytes c ->
            note_drops c;
            incr discarded)
        verdicts;
      (* The shared round's deposited bytes are attributed in
         proportion to each member's share of the frame. *)
      let bytes_share = stats.Sim.deposited_bytes * padded.(i) / body_len in
      (rows, !discarded, expected - !arrived, bytes_share))

let run_batch t items =
  match items with
  | [] -> []
  | _ :: _ ->
    let items = Array.of_list items in
    let k = Array.length items in
    let qids = Array.init k (fun i -> t.queries_run + 1 + i) in
    t.queries_run <- t.queries_run + k;
    let tms =
      Array.map (fun _ -> { stage_s = Array.make (Array.length stages) 0.; charged = false }) items
    in
    (* Admission: the epsilon check, static validation, then the budget
       charge — all in submission order, so the rejection order under a
       full budget is deterministic. epsilon = infinity means "release
       exactly": a debugging mode that bypasses privacy entirely, so it
       is never charged; the serving layer refuses it without an
       explicit override. *)
    let states =
      Array.mapi
        (fun i it ->
          let admitted =
            Result.bind (check_epsilon it.bi_epsilon) (fun () -> validate_query t it.bi_query)
          in
          match admitted with
          | Error e -> Error e
          | Ok info ->
            if it.bi_epsilon = Float.infinity then Ok info
            else begin
              match Dp.budget_charge t.budget it.bi_epsilon with
              | Ok () ->
                tms.(i).charged <- true;
                Ok info
              | Error (`Exhausted r) -> Error (Budget_exhausted r)
            end)
        items
    in
    (* One injector per member: the plan's decisions are stateless, the
       injector only accumulates the member's degradation report. *)
    let injs =
      Array.map
        (fun _ -> Injector.create (Option.value t.cfg.faults ~default:Fault_plan.none))
        items
    in
    (* Members that still need gather + aggregation (a cache hit skips
       both). 1-hop members share one mixnet round, before any
       aggregation, when the runtime routes through the mixnet;
       everything else gathers over the abstract channel, whose fault
       decisions are already coordinate-pure (never round-counter
       dependent), in the aggregation loop below. *)
    let mix_members =
      List.filter_map
        (fun i ->
          match (states.(i), items.(i).bi_cached) with
          | Ok info, None when info.Analysis.query.Ast.hops = 1 -> Some (i, info)
          | Ok _, _ | Error _, _ -> None)
        (List.init k Fun.id)
    in
    let gathered = Array.make k None in
    (match (t.mixnet, mix_members) with
    | Some mix, _ :: _ ->
      let members =
        Array.of_list (List.map (fun (i, info) -> (qids.(i), info, injs.(i))) mix_members)
      in
      (* The shared round-trip's wall clock is attributed in
         proportion to each member's share of the frame bytes. *)
      let shares =
        List.map
          (fun (i, info) -> (tms.(i), float_of_int (Contribution.wire_size t.ctx info + 4)))
          mix_members
      in
      let per =
        phase shares Gather
          ~attrs:[ ("members", Obs.Json.Int (Array.length members)) ]
          (fun () -> gather_rows_mixnet_batch t mix members)
      in
      List.iteri (fun j (i, _) -> gathered.(i) <- Some per.(j)) mix_members
    | Some _, [] | None, _ -> ());
    (* Aggregation per member, in member order: each member's summation
       tree is its own, measured individually — only the genuinely
       shared stages (the mixnet round-trip, the decryption session and
       the rotation after it) are split.  A member on the abstract channel gathers right
       before its own aggregation, so only one member's rows are live
       at a time; its rows come from keyed streams and its faults from
       its own injector, so the order cannot move a released byte. *)
    let prepareds = Array.make k None in
    Array.iteri
      (fun i it ->
        match (states.(i), it.bi_cached) with
        | Ok _, Some p -> prepareds.(i) <- Some p
        | Ok info, None -> (
          let rows, discarded_rows, losses, bytes =
            match gathered.(i) with
            | Some g ->
              (* Clear the member's slot first, so its rows die with
                 the aggregation pool instead of living through the
                 summation tree and relinearization. *)
              gathered.(i) <- None;
              g
            | None ->
              phase [ (tms.(i), 1.) ] Gather
                ~attrs:[ ("hops", Obs.Json.Int info.Analysis.query.Ast.hops) ]
                (fun () -> gather_rows t ~qid:qids.(i) injs.(i) info)
          in
          match
            prepare t ~qid:qids.(i) ~tm:tms.(i) injs.(i) info ~rows ~discarded_rows ~losses
              ~bytes
          with
          | Ok p -> prepareds.(i) <- Some p
          | Error e -> states.(i) <- Error e)
        | Error _, _ -> ())
      items;
    (* One committee threshold-decryption session for the whole batch,
       cached members included; it releases every member still
       admitted, or fails them all. *)
    let out =
      Array.map
        (function
          | Error e -> Error e
          | Ok _ -> Error (Pipeline_error "batch member was not decrypted"))
        states
    in
    let decrypt_idx =
      List.filter_map (fun i -> Option.map (fun p -> (i, p)) prepareds.(i)) (List.init k Fun.id)
    in
    (match decrypt_idx with
    | [] -> ()
    | _ :: _ ->
      (* Crashed committee members never answer; decryption still
         succeeds with any threshold+1 of the remaining live shares. *)
      let plan = Option.value t.cfg.faults ~default:Fault_plan.none in
      let excluded =
        Fault_plan.crashed_members plan ~size:(Committee.committee_size t.comm)
      in
      let members =
        List.map
          (fun (i, p) ->
            ( {
                Committee.b_info = p.p_info;
                b_epsilon = items.(i).bi_epsilon;
                b_noise_rng = Rng.create items.(i).bi_noise_seed;
              },
              p.p_ct ))
          decrypt_idx
      in
      (* The shared session's wall clock, and the hand-off's after it,
         are attributed in proportion to each member's share of the
         concatenated plaintext windows. *)
      let shares =
        List.map
          (fun (i, p) -> (tms.(i), float_of_int p.p_info.Analysis.layout.Analysis.total_bins))
          decrypt_idx
      in
      (* Recruitment and smudging are keyed by the batch, never by the
         committee generation: a failed session leaves the generation
         as it is, and the next batch must not smudge a different
         ciphertext with the same noise, which would expose the
         shares. *)
      let session = Rng.keyed t.cfg.seed Rng.Decrypt_session [ qids.(0) ] in
      let res =
        phase shares Decrypt
          ~attrs:
            [
              ("size", Obs.Json.Int t.cfg.committee_size);
              ("threshold", Obs.Json.Int t.cfg.committee_threshold);
              ("members", Obs.Json.Int (List.length members));
            ]
        @@ fun () ->
        List.iter
          (fun (i, _) -> Injector.note_excluded_committee injs.(i) (List.length excluded))
          decrypt_idx;
        let res = Committee.decrypt_batch ~excluded t.comm session t.ctx ~members in
        Result.iter
          (List.iter2
             (fun (i, _) (release : Committee.release) ->
               if Injector.active injs.(i) then
                 Injector.note_decryption_attempts injs.(i) release.Committee.attempts)
             decrypt_idx)
          res;
        res
      in
      (match res with
      | Error e -> List.iter (fun (i, _) -> out.(i) <- Error (Pipeline_error e)) decrypt_idx
      | Ok releases ->
        phase shares Rotate (fun () ->
            t.comm <- rotate_committee t.cfg t.comm ~population:(Cg.population t.graph));
        let mix_hops =
          match t.cfg.route_through_mixnet with Some c -> c.Sim.hops | None -> 3
        in
        List.iter2
          (fun (i, p) (release : Committee.release) ->
            let degradation =
              (* A cache hit never re-runs gather, so its degradation
                 report is the frozen snapshot of the execution that
                 filled the cache (deterministic: a recomputation would
                 reproduce it decision for decision). *)
              match items.(i).bi_cached with
              | Some cached -> cached.p_degradation
              | None -> Injector.report injs.(i)
            in
            out.(i) <-
              Ok
                ( {
                    info = p.p_info;
                    result = release.Committee.result;
                    noisy_bins = release.Committee.noisy_bins;
                    discarded_contributions = p.p_discarded;
                    origins_included = p.p_origins_included;
                    committee_generation = Committee.generation t.comm - 1;
                    committee_shares = Array.length release.Committee.participants;
                    mixnet_losses = p.p_mixnet_losses;
                    mixnet_bytes = p.p_mixnet_bytes;
                    c_rounds = 2 * items.(i).bi_query.Ast.hops * (mix_hops + 1);
                    degradation;
                  },
                  p ))
          decrypt_idx releases));
    let out = Array.to_list out in
    (* One mycelium-ledger/1 row per batch member, in submission order,
       with its own charged epsilon and its (proportionally attributed)
       stage durations — summing the "epsilon" field over the ledger
       still reproduces [Dp.budget_spent] bit for bit. *)
    (match t.ledger with
    | Some l ->
      List.iteri
        (fun i res ->
          let res = Result.map (fun (r, _) -> r) res in
          Obs.Ledger.append l
            (ledger_entry t ~qid:qids.(i) ~query:items.(i).bi_query
               ~epsilon:items.(i).bi_epsilon ~tm:tms.(i) res))
        out
    | None -> ());
    out

(* A single query is a batch of one. Its noise stream is keyed by
   (runtime seed, query id) — the id [run_batch] is about to assign
   it — under its own purpose, so it never meets the stream of a
   served member, which the serving layer keys by (serving seed,
   admission seq). *)
let run_query_ast ~epsilon t query =
  let item =
    {
      bi_query = query;
      bi_epsilon = epsilon;
      bi_noise_seed = Rng.key t.cfg.seed Rng.Query_noise [ t.queries_run + 1 ];
      bi_cached = None;
    }
  in
  Result.map fst (List.hd (run_batch t [ item ]))

let run_query ~epsilon t src =
  match Parser.parse src with
  | Error e -> Error (Parse_error (Printf.sprintf "at %d: %s" e.Parser.position e.Parser.message))
  | Ok q -> run_query_ast ~epsilon t q

let exact_bins_for_tests t info = Semantics.global_histogram info t.graph
