(** Hash-based hop selection (§3.4), by rank.

    Forwarding duty is restricted to a fraction f of pseudonyms per hop
    position.  The P pseudonym numbers are ranked once by H(x || B),
    ties by x, where B is a beacon chosen collectively
    (Honeycrisp-style) after M1 is committed — so the aggregator can
    bias neither the map (positions are fixed first) nor the coin.  Hop
    i (1-based) is served by the pseudonyms at ranks
    [\[(i-1)*s, i*s)], s = floor(f*P): k hop slots make exactly k*s
    pseudonyms forwarders, which is how the cost model apportions
    forwarding load.  The paper's rule lets x serve hop i when
    H(x || B)/H_max falls in [\[(i-1)*f, i*f)], so a slice holds a
    binomial number of pseudonyms and can be empty; here every slice
    holds exactly s (DESIGN.md §2). *)

val rank : beacon:bytes -> int -> int array
(** [rank ~beacon total] lists the pseudonym numbers [0 .. total-1] in
    increasing order of H(x || B), equal hashes in increasing x.  One
    SHA-256 per pseudonym. *)

val draw_path :
  Mycelium_util.Rng.t -> int array -> width:int -> hops:int -> int array
(** [draw_path rng ranks ~width ~hops] picks hops 1..[hops] in order,
    as a device building a path does: hop [i] is the pseudonym at a
    uniform rank of its slice [\[(i-1)*width, i*width)], one
    [Rng.int rng width] each. *)
