module Cg = Mycelium_graph.Contact_graph
module Analysis = Mycelium_query.Analysis
module Ast = Mycelium_query.Ast
module Runtime = Mycelium_core.Runtime
module Obs = Mycelium_obs.Obs

type entry = {
  e_prepared : Runtime.prepared;
  mutable e_last_use : int;  (* monotone tick; larger = more recent *)
}

type t = {
  capacity : int;
  graph_sig : string;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
  mutable hits : int;
  mutable misses : int;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

(* The neighborhood signature: a digest over the adjacency structure
   and every vertex's neighbor list, in vertex order.  Two runtimes
   whose graphs differ anywhere produce different keys, so a cached
   aggregate can never be served against the wrong population. *)
let graph_signature g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "n=%d;e=%d;" (Cg.population g) (Cg.edge_count g));
  for v = 0 to Cg.population g - 1 do
    Buffer.add_string buf (string_of_int v);
    Buffer.add_char buf ':';
    List.iter
      (fun (u, _) ->
        Buffer.add_string buf (string_of_int u);
        Buffer.add_char buf ',')
      (Cg.neighbors g v);
    Buffer.add_char buf ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let create ~capacity ~graph =
  if capacity < 0 then invalid_arg "Agg_cache.create: negative capacity";
  {
    capacity;
    graph_sig = graph_signature graph;
    table = Hashtbl.create (max 16 capacity);
    clock = 0;
    evictions = 0;
    hits = 0;
    misses = 0;
    c_hits = Obs.Metrics.counter Obs.Names.serve_cache_hits;
    c_misses = Obs.Metrics.counter Obs.Names.serve_cache_misses;
    c_evictions = Obs.Metrics.counter Obs.Names.serve_cache_evictions;
  }

(* The cache key: (neighborhood signature, clip + degree bounds, query
   shape).  The shape is the canonical printed form of the query with
   the analyst-chosen name blanked, so two differently-named queries
   with the same meaning share an entry. *)
let key t (query : Ast.t) ~(info : Analysis.info) =
  let clip =
    match info.Analysis.clip with
    | Some (lo, hi) -> Printf.sprintf "%h..%h" lo hi
    | None -> "-"
  in
  Printf.sprintf "g=%s|d=%d|clip=%s|q=%s" t.graph_sig info.Analysis.degree_bound clip
    (Ast.to_string { query with Ast.name = "" })

let find t k =
  if t.capacity = 0 then begin
    t.misses <- t.misses + 1;
    Obs.Metrics.incr t.c_misses;
    None
  end
  else
    match Hashtbl.find_opt t.table k with
    | Some e ->
      t.clock <- t.clock + 1;
      e.e_last_use <- t.clock;
      t.hits <- t.hits + 1;
      Obs.Metrics.incr t.c_hits;
      Some e.e_prepared
    | None ->
      t.misses <- t.misses + 1;
      Obs.Metrics.incr t.c_misses;
      None

let put t k prepared =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table k with
    | Some _ -> ()
    | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        (* Deterministic eviction: the least-recently-used entry; the
           use clock is a strictly monotone tick, so there are never
           ties and the victim is a pure function of the operation
           sequence. *)
        let victim =
          (* lint: allow determinism — use ticks are strictly monotone,
             so the minimum is unique and fold order cannot matter *)
          Hashtbl.fold
            (fun vk e acc ->
              match acc with
              | Some (_, best) when best <= e.e_last_use -> acc
              | Some _ | None -> Some (vk, e.e_last_use))
            t.table None
        in
        match victim with
        | Some (vk, _) ->
          Hashtbl.remove t.table vk;
          t.evictions <- t.evictions + 1;
          Obs.Metrics.incr t.c_evictions
        | None -> ()
      end);
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table k { e_prepared = prepared; e_last_use = t.clock }
  end

let length t = Hashtbl.length t.table
let evictions t = t.evictions
let hits t = t.hits
let misses t = t.misses
