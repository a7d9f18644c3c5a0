module Rng = Mycelium_util.Rng
module Dp = Mycelium_dp.Dp
module Params = Mycelium_bgv.Params
module Analysis = Mycelium_query.Analysis
module Ast = Mycelium_query.Ast
module Parser = Mycelium_query.Parser
module Runtime = Mycelium_core.Runtime
module Obs = Mycelium_obs.Obs

type config = {
  batch_size : int;
  deadline_s : float;
  per_user_budget : float;
  accounting : Dp.accounting;
  cache_capacity : int;
  allow_unbudgeted : bool;
  seed : int64;
}

let default_config =
  {
    batch_size = 8;
    deadline_s = 1.0;
    per_user_budget = 10.;
    accounting = Dp.Basic;
    cache_capacity = 64;
    allow_unbudgeted = false;
    seed = 1L;
  }

type request = { user : string; epsilon : float; sql : string; name : string option }

type rejection =
  | Parse_rejected of string
  | Invalid of Runtime.query_error
  | Unbudgeted
  | Budget_rejected of float

type admission = Queued of int | Rejected of rejection

type response = {
  seq : int;
  user : string;
  query_name : string;
  cache_hit : bool;
  outcome : (Runtime.query_result, Runtime.query_error) result;
}

type pending = {
  pd_seq : int;
  pd_user : string;
  pd_epsilon : float;
  pd_query : Ast.t;
  pd_info : Analysis.info;
  pd_key : string;
  pd_arrival : float;
}

type t = {
  cfg : config;
  runtime : Runtime.t;
  acct : Accountant.t;
  cache : Agg_cache.t;
  ring_degree : int;
  mutable pending : pending list;  (* newest first *)
  mutable next_seq : int;
  c_admitted : Obs.Metrics.counter;
  c_rejected : Obs.Metrics.counter;
  c_batches : Obs.Metrics.counter;
  c_members : Obs.Metrics.counter;
}

let create ?(config = default_config) runtime =
  if config.batch_size < 1 then invalid_arg "Serve.create: batch_size must be >= 1";
  {
    cfg = config;
    runtime;
    acct =
      Accountant.create ~accounting:config.accounting
        ~per_user_total:config.per_user_budget ();
    cache = Agg_cache.create ~capacity:config.cache_capacity;
    ring_degree = (Runtime.config runtime).Runtime.params.Params.degree;
    pending = [];
    next_seq = 0;
    c_admitted = Obs.Metrics.counter Obs.Names.serve_admitted;
    c_rejected = Obs.Metrics.counter Obs.Names.serve_rejected;
    c_batches = Obs.Metrics.counter Obs.Names.serve_batches;
    c_members = Obs.Metrics.counter Obs.Names.serve_batch_members;
  }

let accountant t = t.acct
let cache t = t.cache
let pending_count t = List.length t.pending

(* Execute one chunk of pending members as a single Runtime batch:
   cache lookups first (a hit skips gather and aggregation inside the
   batch), then one shared round-trip + decryption session, then the
   fresh aggregates are written back to the cache.

   Duplicate shapes inside the chunk are deferred to a second pass:
   the first occurrence of each key computes and writes back, so by
   the time its duplicates look up they decrypt the cached aggregate
   instead of recomputing the gather + aggregation.  The split is
   release-byte-safe — a member's noise stream is a pure function of
   its own admission seq, its transit-fault coordinate of its query
   shape, never of the batch composition (the batched ≡ sequential
   suite pins this). *)
let run_chunk t chunk =
  Obs.Metrics.incr t.c_batches;
  Obs.Metrics.add t.c_members (List.length chunk);
  let exec members =
    let lookups = List.map (fun pd -> (pd, Agg_cache.find t.cache pd.pd_key)) members in
    let items =
      List.map
        (fun (pd, cached) ->
          {
            Runtime.bi_query = pd.pd_query;
            bi_epsilon = pd.pd_epsilon;
            (* The member's private noise stream: a pure function of the
               serving seed and the member's admission sequence number —
               never of the batch composition. *)
            bi_noise_seed = Rng.key t.cfg.seed Rng.Member_noise [ pd.pd_seq ];
            bi_cached = cached;
          })
        lookups
    in
    let results = Runtime.run_batch t.runtime items in
    List.map2
      (fun (pd, cached) res ->
        let cache_hit = Option.is_some cached in
        let outcome =
          match res with
          | Ok (r, prepared) ->
            if not cache_hit then Agg_cache.put t.cache pd.pd_key prepared;
            Ok r
          | Error e -> Error e
        in
        { seq = pd.pd_seq; user = pd.pd_user; query_name = pd.pd_query.Ast.name;
          cache_hit; outcome })
      lookups results
  in
  let claimed = Hashtbl.create 8 in
  let firsts, dups =
    List.fold_left
      (fun (firsts, dups) pd ->
        if Hashtbl.mem claimed pd.pd_key then (firsts, pd :: dups)
        else begin
          Hashtbl.add claimed pd.pd_key ();
          (pd :: firsts, dups)
        end)
      ([], []) chunk
  in
  match dups with
  | [] -> exec chunk
  | _ ->
    (* sequence the passes explicitly: [@] evaluates its operands
       right to left, which would run the duplicates before the
       write-backs they are meant to hit *)
    let first_responses = exec (List.rev firsts) in
    let dup_responses = exec (List.rev dups) in
    (* restore admission order: chunk members carry ascending seqs *)
    List.sort (fun a b -> Int.compare a.seq b.seq)
      (first_responses @ dup_responses)

(* Split the queue into batches: at most [batch_size] members, and
   never more plaintext windows than the ring can hold in one
   decryption session (each member needs total_bins coefficients of
   the degree-N plaintext). *)
let drain t =
  let queue = List.rev t.pending in
  t.pending <- [];
  let rec chunks acc cur cur_n cur_bins = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | pd :: rest ->
      let bins = pd.pd_info.Analysis.layout.Analysis.total_bins in
      if cur <> [] && (cur_n >= t.cfg.batch_size || cur_bins + bins > t.ring_degree)
      then chunks (List.rev cur :: acc) [ pd ] 1 bins rest
      else chunks acc (pd :: cur) (cur_n + 1) (cur_bins + bins) rest
  in
  List.concat_map (run_chunk t) (chunks [] [] 0 0 queue)

let oldest_arrival t =
  match List.rev t.pending with [] -> None | pd :: _ -> Some pd.pd_arrival

(* Admission: the epsilon check, parse, static validation, the
   unbudgeted-query gate and the per-user budget charge — all before
   any crypto work.  A deadline flush happens before the new arrival
   is considered, so the batch a query joins depends only on the
   arrival sequence. *)
let submit t ~arrival (req : request) =
  let flushed =
    match oldest_arrival t with
    | Some t0 when arrival -. t0 >= t.cfg.deadline_s -> drain t
    | Some _ | None -> []
  in
  let queue query info =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.pending <-
      {
        pd_seq = seq;
        pd_user = req.user;
        pd_epsilon = req.epsilon;
        pd_query = query;
        pd_info = info;
        pd_key = Agg_cache.key query;
        pd_arrival = arrival;
      }
      :: t.pending;
    Queued seq
  in
  let admit () =
    match Runtime.check_epsilon req.epsilon with
    | Error e -> Rejected (Invalid e)
    | Ok () -> (
      match Parser.parse ?name:req.name req.sql with
      | Error e ->
        Rejected (Parse_rejected (Printf.sprintf "at %d: %s" e.Parser.position e.Parser.message))
      | Ok query -> (
        match Runtime.validate_query t.runtime query with
        | Error e -> Rejected (Invalid e)
        | Ok info ->
          if req.epsilon = Float.infinity && not t.cfg.allow_unbudgeted then
            (* The runtime treats epsilon = infinity as a debugging
               mode; a serving layer must refuse to release unbudgeted
               results unless explicitly overridden. *)
            Rejected Unbudgeted
          else if req.epsilon <> Float.infinity then begin
            match Accountant.charge t.acct ~user:req.user req.epsilon with
            | Ok () -> queue query info
            | Error (`Exhausted r) -> Rejected (Budget_rejected r)
          end
          else queue query info))
  in
  let admission = admit () in
  (match admission with
  | Queued _ -> Obs.Metrics.incr t.c_admitted
  | Rejected _ -> Obs.Metrics.incr t.c_rejected);
  let flushed =
    if List.length t.pending >= t.cfg.batch_size then flushed @ drain t else flushed
  in
  (admission, flushed)

let rejection_to_string = function
  | Parse_rejected m -> Printf.sprintf "parse: %s" m
  | Invalid (Runtime.Parse_error m) -> Printf.sprintf "parse: %s" m
  | Invalid (Runtime.Analysis_error m) -> Printf.sprintf "analysis: %s" m
  | Invalid (Runtime.Infeasible m) -> Printf.sprintf "infeasible: %s" m
  | Invalid (Runtime.Budget_exhausted r) ->
    Printf.sprintf "budget exhausted (%.3f remaining)" r
  | Invalid (Runtime.Invalid_epsilon e) ->
    Printf.sprintf "invalid epsilon %g (must be finite and positive, or infinity)" e
  | Invalid (Runtime.Pipeline_error m) -> Printf.sprintf "pipeline: %s" m
  | Unbudgeted -> "unbudgeted query (epsilon = infinity) refused without --no-budget"
  | Budget_rejected r -> Printf.sprintf "user budget exhausted (%.3f remaining)" r
