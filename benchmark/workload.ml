(* The three workloads: their fixed settings, the seeded request
   streams the analysts send, and the bring-up that makes a system
   ready to serve them.

   The population (graph) of each workload is fixed; the seed draws
   what the analysts ask — the order of the query shapes, their
   predicate constants — and the system's keys and noise.  Run-to-run
   cost differences therefore come from the request mix alone, and the
   mix keeps fixed proportions: every pass over a workload's deck of
   shapes asks each shape once, in a seeded order. *)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Params = Mycelium_bgv.Params
module Sim = Mycelium_mixnet.Sim
module Corpus = Mycelium_query.Corpus
module Runtime = Mycelium_core.Runtime
module Serve = Mycelium_serve.Serve

type kind = Direct_mixed | Serve_mixnet | Serve_warm

let all = [ ("direct-mixed", Direct_mixed); ("serve-mixnet", Serve_mixnet); ("serve-warm", Serve_warm) ]
let name kind = fst (List.find (fun (_, k) -> k = kind) all)

type request = {
  sql : string;
  name : string;  (** the shape's corpus family, e.g. "Q2" *)
  epsilon : float;  (** [infinity]: an exact probe, checked against the oracle *)
}

let finite_epsilon = 0.5

(* Budgets large enough that no run of any length exhausts them. *)
let unlimited = 1e15

type settings = {
  params : Params.t;
  population : int;
  degree : int;
  relin_degree : int option;
  graph_seed : int64;
  mixnet : Sim.config option;
  clients : int;  (** closed-loop clients; on the serve workloads also the batch size *)
  cache_capacity : int;
  reference : Calib.reference;  (** the host-speed reference that slows like this workload *)
}

let settings = function
  | Direct_mixed ->
    {
      params = Params.test_medium;
      population = 12;
      degree = 2;
      (* 2-hop products reach the whole neighbourhood ball *)
      relin_degree = Some 8;
      graph_seed = 99L;
      mixnet = None;
      clients = 1;
      cache_capacity = 0;
      (* contributions: proofs, hashes and wire format besides the ring *)
      reference = Calib.Mixed;
    }
  | Serve_mixnet ->
    {
      params = Params.test_small;
      (* onion routing costs about 0.5 s per member at 12 devices; with
         two members a batch, a 55 s run sees 40 to 60 batches *)
      population = 12;
      degree = 4;
      relin_degree = None;
      graph_seed = 4242L;
      clients = 2;
      mixnet =
        Some
          {
            Sim.default_config with
            Sim.hops = 2;
            replicas = 2;
            fraction = 0.4;
            malicious_fraction = 0.;
            churn = 0.;
            fast_setup = true;
            fast_keys = true;
          };
      (* smaller than the shapes between two repeats of a shape, so the
         miss, put and evict paths all run *)
      cache_capacity = 8;
      (* onion layers and Merkle hashes over byte arenas *)
      reference = Calib.Mixed;
    }
  | Serve_warm ->
    {
      params = Params.test_small;
      population = 16;
      degree = 4;
      relin_degree = None;
      graph_seed = 4242L;
      mixnet = None;
      clients = 4;
      cache_capacity = 64;
      (* decryption and rotation: ring arithmetic alone *)
      reference = Calib.Arithmetic;
    }

(* The 2-hop Q1 and the 1-hop single-ciphertext shapes; §4.5 sequence
   shapes (Q3, Q6, Q7, Q9, Q10) cost five times as much at these
   settings and would put the tail percentile in a second cost mode. *)
let direct_deck = [| "Q1"; "Q2"; "Q4"; "Q5"; "Q8" |]

(* The 1-hop single-ciphertext shapes: asked with seeded windows on
   serve-mixnet, as the corpus has them on serve-warm.  One member of
   each needs 61 + 6 + 60 + 72 = 199 plaintext slots at d = 4, so a
   serve-warm batch of four fits one N = 256 decryption session. *)
let serve_deck = [| "Q2"; "Q4"; "Q5"; "Q8" |]

let corpus_sql id = (Corpus.find id).Corpus.sql

(* A distinct shape of a deck family: the corpus query plus a seeded
   destination-age window (and, for Q2, a seeded diagnosis window).
   Every variant keeps one ciphertext per row and the family's bin
   layout, so variants cost what the corpus query costs. *)
let variant rng id =
  let lo = Rng.int_in rng 0 49 in
  let hi = Rng.int_in rng (lo + 20) 99 in
  let age = Printf.sprintf "(dest.age IN [%d, %d])" lo hi in
  match id with
  | "Q2" ->
    let a = Rng.int_in rng 0 7 in
    let b = Rng.int_in rng (a + 2) (a + 12) in
    Printf.sprintf
      "SELECT HISTO(SUM(edge.duration)) FROM neigh(1) WHERE self.inf AND (dest.tInf IN \
       [edge.last_contact+%d, edge.last_contact+%d]) AND %s"
      a b age
  | "Q4" ->
    Printf.sprintf
      "SELECT HISTO(SUM(dest.inf)) FROM neigh(1) WHERE onSubway(edge.location) AND self.inf AND %s"
      age
  | "Q5" -> Printf.sprintf "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE %s GROUP BY self.age" age
  | _ ->
    Printf.sprintf
      "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) WHERE self.inf AND %s GROUP BY \
       isHousehold(edge.location)"
      age

type stream = {
  kind : kind;
  rng : Rng.t;
  queue : (string * string) Queue.t;  (* (family, sql) of the current deck pass *)
  used : (string, unit) Hashtbl.t;
  mutable sent : int;
}

let stream kind ~seed =
  {
    kind;
    rng = Rng.create (Rng.mix64 0x72657175657374L (Int64.of_int seed));
    queue = Queue.create ();
    used = Hashtbl.create 64;
    sent = 0;
  }

let rec distinct_variant s id tries =
  let sql = variant s.rng id in
  if not (Hashtbl.mem s.used sql) then begin
    Hashtbl.replace s.used sql ();
    sql
  end
  else if tries = 0 then failwith "benchmark: ran out of distinct query shapes"
  else distinct_variant s id (tries - 1)

let refill s =
  let deck = Array.copy (match s.kind with Direct_mixed -> direct_deck | Serve_mixnet | Serve_warm -> serve_deck) in
  Rng.shuffle s.rng deck;
  Array.iter
    (fun id ->
      let sql =
        match s.kind with
        | Serve_mixnet -> distinct_variant s id 1000
        | Direct_mixed | Serve_warm -> corpus_sql id
      in
      Queue.add (id, sql) s.queue)
    deck

(* Exact probes: the first deck pass on direct-mixed (one per shape),
   the first member of every batch on the serve workloads. *)
let next s =
  if Queue.is_empty s.queue then refill s;
  let name, sql = Queue.pop s.queue in
  let i = s.sent in
  s.sent <- i + 1;
  let probe =
    match s.kind with
    | Direct_mixed -> i < Array.length direct_deck
    | Serve_mixnet | Serve_warm -> i mod (settings s.kind).clients = 0
  in
  { sql; name; epsilon = (if probe then Float.infinity else finite_epsilon) }

(* ------------------------------------------------------------------ *)
(* Bring-up                                                            *)
(* ------------------------------------------------------------------ *)

type system = {
  kind : kind;
  rt : Runtime.t;
  srv : Serve.t option;
  mutable clock : float;  (** the logical arrival clock handed to Serve.submit *)
}

let graph st =
  let rng = Rng.create st.graph_seed in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = st.population; degree_bound = st.degree; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let serve_request ~client (r : request) =
  { Serve.user = Printf.sprintf "analyst%d" client; epsilon = r.epsilon; sql = r.sql; name = Some r.name }

let submit sys srv ~client r =
  let arrival = sys.clock in
  sys.clock <- sys.clock +. 1.;
  Serve.submit srv ~arrival (serve_request ~client r)

(* The warm-up that finishes lazy set-up: on serve-mixnet one request
   triggers the mixnet's path set-up (the corpus Q4 carries no age
   window, so no timed request repeats its shape); on serve-warm one
   batch primes the cache with every shape the timed phase asks. *)
let warm_up_requests = function
  | Direct_mixed -> []
  | Serve_mixnet -> [ { sql = corpus_sql "Q4"; name = "Q4"; epsilon = Float.infinity } ]
  | Serve_warm ->
    Array.to_list
      (Array.map (fun id -> { sql = corpus_sql id; name = id; epsilon = Float.infinity }) serve_deck)

(* One bring-up: graph generation, Runtime.init, Serve.create and the
   warm-up.  Returns the warm-up's releases so the caller can check
   them against the oracle. *)
let bring_up kind ~seed =
  let st = settings kind in
  let rt =
    Runtime.init
      {
        Runtime.default_config with
        Runtime.params = st.params;
        degree_bound = st.degree;
        relin_degree = st.relin_degree;
        seed = Int64.of_int seed;
        epsilon_budget = unlimited;
        route_through_mixnet = st.mixnet;
      }
      (graph st)
  in
  match kind with
  | Direct_mixed -> ({ kind; rt; srv = None; clock = 0. }, [])
  | Serve_mixnet | Serve_warm ->
    let srv =
      Serve.create
        ~config:
          {
            Serve.default_config with
            Serve.batch_size = st.clients;
            (* batches flush on size alone: composition never depends on speed *)
            deadline_s = Float.infinity;
            per_user_budget = unlimited;
            cache_capacity = st.cache_capacity;
            allow_unbudgeted = true;
            seed = Int64.of_int seed;
          }
        rt
    in
    let sys = { kind; rt; srv = Some srv; clock = 0. } in
    let reqs = warm_up_requests kind in
    let flushed =
      List.concat_map
        (fun r ->
          match submit sys srv ~client:0 r with
          | Serve.Queued _, flushed -> flushed
          | Serve.Rejected e, _ -> failwith ("benchmark: warm-up rejected: " ^ Serve.rejection_to_string e))
        reqs
    in
    let drained = Serve.drain srv in
    let responses = flushed @ drained in
    let by_seq = List.mapi (fun i r -> (i, r)) reqs in
    (sys, List.map (fun (resp : Serve.response) -> (List.assoc resp.Serve.seq by_seq, resp.Serve.outcome)) responses)
