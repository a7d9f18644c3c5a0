module Rng = Mycelium_util.Rng

type config = {
  population : int;
  degree_bound : int;
  mean_household : float;
  extra_contact_rate : float;
  horizon_days : int;
}

let default_config =
  {
    population = 1000;
    degree_bound = 10;
    mean_household = 2.5;
    extra_contact_rate = 4.0;
    horizon_days = 14;
  }

type t = {
  config : config;
  vertices : Schema.vertex_data array;
  adj : (int * Schema.edge_data) list array;
  mutable n_edges : int;
}

let population t = t.config.population
let horizon_days t = t.config.horizon_days

let vertex t i = t.vertices.(i)
let set_vertex t i v = t.vertices.(i) <- v

let neighbors t i = t.adj.(i)

let edge t u v =
  List.find_map (fun (w, e) -> if w = v then Some e else None) t.adj.(u)

let degree t i = List.length t.adj.(i)
let max_degree t =
  let m = ref 0 in
  Array.iter (fun l -> m := max !m (List.length l)) t.adj;
  !m

let edge_count t = t.n_edges

let random_edge_data rng ~config ~location ~setting =
  let horizon = config.horizon_days in
  {
    Schema.duration_min = 5 + Rng.int rng 240;
    contacts = 1 + Rng.int rng 20;
    last_contact = Rng.int rng horizon;
    location;
    setting;
  }

let add_edge g rng ~location ~setting u v =
  if u <> v && edge g u v = None
     && degree g u < g.config.degree_bound
     && degree g v < g.config.degree_bound
  then begin
    let data = random_edge_data rng ~config:g.config ~location ~setting in
    g.adj.(u) <- (v, data) :: g.adj.(u);
    g.adj.(v) <- (u, data) :: g.adj.(v);
    g.n_edges <- g.n_edges + 1
  end

let generate config rng =
  if config.population < 2 then invalid_arg "Contact_graph.generate: population too small";
  if config.degree_bound < 1 then invalid_arg "Contact_graph.generate: degree bound too small";
  let n = config.population in
  (* Assign people to households with geometric-ish sizes around the
     configured mean. *)
  let households = Array.make n 0 in
  let hh = ref 0 and i = ref 0 in
  while !i < n do
    let size = 1 + Rng.geometric rng (1. /. config.mean_household) in
    let size = min size (n - !i) in
    for j = !i to !i + size - 1 do
      households.(j) <- !hh
    done;
    incr hh;
    i := !i + size
  done;
  let vertices =
    Array.init n (fun i ->
        {
          Schema.infected = false;
          t_inf = None;
          age = Rng.int rng 100;
          household = households.(i);
        })
  in
  let g = { config; vertices; adj = Array.make n []; n_edges = 0 } in
  (* Household cliques. *)
  let start = ref 0 in
  while !start < n do
    let h = households.(!start) in
    let stop = ref !start in
    while !stop < n && households.(!stop) = h do
      incr stop
    done;
    for u = !start to !stop - 1 do
      for v = u + 1 to !stop - 1 do
        add_edge g rng ~location:Schema.Household ~setting:Schema.Family u v
      done
    done;
    start := !stop
  done;
  (* Random extra contacts: work, social, transit. *)
  let extra_target = int_of_float (float_of_int n *. config.extra_contact_rate /. 2.) in
  let attempts = ref 0 in
  let placed = ref 0 in
  while !placed < extra_target && !attempts < extra_target * 20 do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    let before = g.n_edges in
    let location, setting =
      match Rng.int rng 4 with
      | 0 -> (Schema.Workplace, Schema.Work)
      | 1 -> (Schema.Subway, Schema.Social)
      | 2 -> (Schema.SocialVenue, Schema.Social)
      | _ -> (Schema.Other, Schema.Social)
    in
    add_edge g rng ~location ~setting u v;
    if g.n_edges > before then incr placed
  done;
  g

(* Externally-sourced graphs (trace imports, test fixtures) are not
   produced by [generate] and may violate the degree bound; loading is
   therefore unbounded and callers clip explicitly. *)
let of_edges ~degree_bound ?(horizon_days = default_config.horizon_days) ~vertices ~edges () =
  let n = Array.length vertices in
  if n < 2 then invalid_arg "Contact_graph.of_edges: population too small";
  if degree_bound < 1 then invalid_arg "Contact_graph.of_edges: degree bound too small";
  let config = { default_config with population = n; degree_bound; horizon_days } in
  let g = { config; vertices = Array.copy vertices; adj = Array.make n []; n_edges = 0 } in
  List.iter
    (fun (u, v, data) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Contact_graph.of_edges: vertex out of range";
      if u = v then invalid_arg "Contact_graph.of_edges: self-loop";
      if edge g u v <> None then invalid_arg "Contact_graph.of_edges: duplicate edge";
      g.adj.(u) <- (v, data) :: g.adj.(u);
      g.adj.(v) <- (u, data) :: g.adj.(v);
      g.n_edges <- g.n_edges + 1)
    edges;
  g

(* Deterministic repair for over-degree graphs: walk the edge set in
   canonical (min endpoint, max endpoint) order and keep an edge iff
   both endpoints still have capacity.  Independent of adjacency-list
   representation order, so a reloaded graph clips identically. *)
let clip_to_degree_bound ?bound t =
  let n = t.config.population in
  let b = match bound with Some b -> b | None -> t.config.degree_bound in
  if b < 1 then invalid_arg "Contact_graph.clip_to_degree_bound: bound too small";
  let edges = ref [] in
  Array.iteri
    (fun u l -> List.iter (fun (v, data) -> if u < v then edges := (u, v, data) :: !edges) l)
    t.adj;
  let edges =
    List.sort
      (fun (u1, v1, _) (u2, v2, _) ->
        match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
      !edges
  in
  let g =
    {
      config = { t.config with degree_bound = b };
      vertices = Array.copy t.vertices;
      adj = Array.make n [];
      n_edges = 0;
    }
  in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, data) ->
      if deg.(u) < b && deg.(v) < b then begin
        g.adj.(u) <- (v, data) :: g.adj.(u);
        g.adj.(v) <- (u, data) :: g.adj.(v);
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        g.n_edges <- g.n_edges + 1
      end)
    edges;
  g

let k_hop t origin ~k =
  let dist = Hashtbl.create 64 in
  Hashtbl.add dist origin 0;
  let queue = Queue.create () in
  Queue.add origin queue;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du < k then
      List.iter
        (fun (v, _) ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.add dist v (du + 1);
            out := (v, du + 1) :: !out;
            Queue.add v queue
          end)
        t.adj.(u)
  done;
  List.rev !out

let spanning_parents t origin ~k =
  let parent = Hashtbl.create 64 in
  let dist = Hashtbl.create 64 in
  Hashtbl.add dist origin 0;
  let queue = Queue.create () in
  Queue.add origin queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du < k then
      List.iter
        (fun (v, _) ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.add dist v (du + 1);
            Hashtbl.add parent v u;
            Queue.add v queue
          end)
        t.adj.(u)
  done;
  parent

