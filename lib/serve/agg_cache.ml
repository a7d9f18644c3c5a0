module Runtime = Mycelium_core.Runtime
module Obs = Mycelium_obs.Obs

type entry = {
  e_prepared : Runtime.prepared;
  mutable e_last_use : int;  (* monotone tick; larger = more recent *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
  mutable hits : int;
  mutable misses : int;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Agg_cache.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    clock = 0;
    evictions = 0;
    hits = 0;
    misses = 0;
    c_hits = Obs.Metrics.counter Obs.Names.serve_cache_hits;
    c_misses = Obs.Metrics.counter Obs.Names.serve_cache_misses;
    c_evictions = Obs.Metrics.counter Obs.Names.serve_cache_evictions;
  }

(* A cache belongs to one serving layer over one runtime, whose graph
   and degree bound are fixed at init; the clip bounds are part of the
   query text.  So the shape alone identifies the aggregate. *)
let key = Runtime.shape

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
