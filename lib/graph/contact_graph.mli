(** Bounded-degree contact graphs: the population substrate over which
    Mycelium queries run (Figure 1).

    The generator builds a household structure (complete small cliques,
    [Family]/[Household] edges) and overlays random work/social/transit
    contacts subject to a global degree bound d — the paper assumes
    such a bound (assumption 1 of §3.1, d = 10 in Figure 4). Vertex
    infection fields start empty and are filled by {!Epidemic}. *)

type config = {
  population : int;
  degree_bound : int;  (** hard cap d on vertex degree *)
  mean_household : float;  (** average household size *)
  extra_contact_rate : float;  (** target non-household degree per person *)
  horizon_days : int;  (** contact history length, also epidemic length *)
}

val default_config : config
(** 1000 people, d = 10, households ~2.5, 14-day horizon. *)

(* lint: allow interface — graphs are large mutable adjacency stores; tests compare derived views (edges, vertices), never whole graphs *)
type t

val generate : config -> Mycelium_util.Rng.t -> t

val population : t -> int
val horizon_days : t -> int

val vertex : t -> int -> Schema.vertex_data
val set_vertex : t -> int -> Schema.vertex_data -> unit
(** Used by {!Epidemic} to write infection outcomes. *)

val neighbors : t -> int -> (int * Schema.edge_data) list
(** Adjacent vertices with the attributes of the connecting edge. *)

val edge : t -> int -> int -> Schema.edge_data option

val max_degree : t -> int
val edge_count : t -> int

(* lint: allow unused-export — test_core and test_query build their
   hand-drawn fixture graphs with it; it writes the adjacency directly *)
val of_edges :
  degree_bound:int ->
  ?horizon_days:int ->
  vertices:Schema.vertex_data array ->
  edges:(int * int * Schema.edge_data) list ->
  unit ->
  t
(** Load a graph from explicit vertex and edge data (trace imports, test
    fixtures).  Unlike {!generate}, the degree bound is {e not} enforced
    — externally-sourced graphs may exceed it, and the runtime clips
    them (see {!clip_to_degree_bound}).  Rejects self-loops, duplicate
    edges and out-of-range endpoints. *)

val clip_to_degree_bound : ?bound:int -> t -> t
(** A copy of the graph in which every vertex has degree [<= bound]
    (default [degree_bound t]; the copy's [degree_bound] becomes the
    bound used): edges are visited in canonical (min endpoint, max
    endpoint) order and kept iff both endpoints still have capacity.
    Deterministic and independent of adjacency-list order; the identity
    (up to adjacency order) for graphs already within the bound. *)

val k_hop : t -> int -> k:int -> (int * int) list
(** [(vertex, distance)] pairs with distance in [1..k]; excludes the
    origin. BFS, matching the flooding semantics of §4.4. *)

val spanning_parents : t -> int -> k:int -> (int, int) Hashtbl.t
(** For each vertex in the k-hop neighborhood, its upstream neighbor on
    the BFS tree ("the upstream neighbor", §4.4). *)

