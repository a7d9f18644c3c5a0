module Rng = Mycelium_util.Rng
module Pool = Mycelium_parallel.Pool
module Sha256 = Mycelium_crypto.Sha256
module Elgamal = Mycelium_crypto.Elgamal
module Merkle = Mycelium_crypto.Merkle
module Obs = Mycelium_obs.Obs

(* Mixnet observability (DESIGN.md §8): spans for setup and each
   forwarding stage of a query round, counters for onion layers peeled
   and bytes deposited at the aggregator's mailboxes, and a histogram
   of per-message anonymity-set sizes.  None of it touches the Rng or
   the protocol state, so results are identical with tracing on/off. *)
let m_deposited_bytes = Obs.Metrics.counter Obs.Names.mixnet_deposited_bytes
let m_layers_peeled = Obs.Metrics.counter Obs.Names.onion_layers_peeled
let m_dummies = Obs.Metrics.counter Obs.Names.mixnet_dummies_uploaded
let h_anonymity = Obs.Metrics.histogram Obs.Names.mixnet_anonymity_set

(* Growable int vector: the simulator's workhorse container.  Reused
   across rounds so steady-state forwarding allocates no per-slot
   boxes. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let clear v = v.n <- 0
  let length v = v.n
  let get v i = v.a.(i)

  let push v x =
    if v.n >= Array.length v.a then begin
      let cap = max 16 (2 * Array.length v.a) in
      let a = Array.make cap 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

type config = {
  n_devices : int;
  pseudonyms_per_device : int;
  hops : int;
  replicas : int;
  fraction : float;
  degree : int;
  malicious_fraction : float;
  churn : float;
  fast_setup : bool;
  fast_keys : bool;
  verify_every : int;
  anon_sample : int;
  seed : int64;
}

let default_config =
  {
    n_devices = 500;
    pseudonyms_per_device = 1;
    hops = 3;
    replicas = 2;
    fraction = 0.1;
    degree = 10;
    malicious_fraction = 0.02;
    churn = 0.;
    fast_setup = false;
    fast_keys = false;
    verify_every = 1;
    anon_sample = 0;
    seed = 1L;
  }

type device = {
  id : int;
  keys : (Elgamal.public_key * Elgamal.private_key) array;  (* one per pseudonym *)
  pseudonyms : bytes array;
  malicious : bool;
}

(* Observer bookkeeping, one byte tag plus two ints per mailbox slot
   (the former [slot_origin] variant, unboxed into the slot slab):
     0  Deposited            a = source device
     1  Forwarded_honest     a = device, b = C-round
     2  Forwarded_malicious  a = upstream sid
     3  Dummy_honest         a = device, b = C-round
     4  Dummy_malicious *)
let tag_deposited = 0
let tag_fwd_honest = 1
let tag_fwd_malicious = 2
let tag_dummy_honest = 3
let tag_dummy_malicious = 4

type t = {
  cfg : config;
  devices : device array;
  vmap : Vmap.t;
  bulletin : Bulletin.t;
  (* Pseudonyms by H(x || beacon); hop i owns ranks [(i-1)*width,
     i*width). *)
  ranks : int array;
  width : int;
  mutable round : int;
  (* Flat path store: field f of path p lives at p_f.(p); hop pseudonyms
     at p_hops.(p*k .. p*k+k-1).  Link i of path p carries id
     p_base.(p) + i, and its key derives from that id ([link_key]). *)
  mutable n_paths : int;
  mutable p_src : int array;
  mutable p_dst : int array;
  mutable p_msg : int array;
  mutable p_hops : int array;
  mutable p_base : int64 array;
  (* Per-device forwarding duties, packed (pid lsl 4) lor stage; the
     key, in/out links and next pseudonym all derive from the path
     store, so a route entry is one immediate int. *)
  routes : Ivec.t array;
  mutable next_msg : int;
  mutable next_link : int64;
  (* Slot slab, reused across query rounds: sids restart at 0 each
     round and index these arrays.  Bodies live in two ping-pong
     arenas: the slot allocated as the j-th of its C-round owns bytes
     [j*body_len, (j+1)*body_len) of the round's arena. *)
  mutable next_sid : int;
  mutable cur_base : int;  (* first sid of the C-round held in arena_cur *)
  mutable body_len : int;
  mutable s_link : int64 array;
  mutable s_next : int array;  (* intrusive per-mailbox list, -1 ends *)
  mutable s_tag : Bytes.t;
  mutable s_a : int array;
  mutable s_b : int array;
  mutable arena_cur : Bytes.t;
  mutable arena_next : Bytes.t;
  mailbox_head : int array;  (* pseudonym -> newest sid, -1 empty *)
  touched : Ivec.t;  (* non-empty mailboxes, tracked at deposit time *)
  link_index : (int, int) Hashtbl.t;  (* link id -> sid, current C-round *)
  (* adversary view, reset per query round *)
  downloads : (int, int array) Hashtbl.t;  (* dev*k + stage-1 -> sids *)
  mutable delivered_sid : int array;  (* pid -> final-stage sid, -1 none *)
  scratch : Ivec.t;
  scratch2 : Ivec.t;
  mutable last_deliveries : (int * int * bytes) list;
}

let vmap t = t.vmap
let bulletin t = t.bulletin
let current_round t = t.round

(* Pseudonym numbers are device-major: device d owns [d*P, (d+1)*P). *)
let device_of t pseudo = pseudo / t.cfg.pseudonyms_per_device
let own_pseudo t dev = dev * t.cfg.pseudonyms_per_device
let sk_of t pseudo =
  snd t.devices.(device_of t pseudo).keys.(pseudo mod t.cfg.pseudonyms_per_device)

let create cfg =
  if cfg.n_devices < 2 then invalid_arg "Sim.create: need at least two devices";
  if cfg.hops < 1 then invalid_arg "Sim.create: need at least one hop";
  if cfg.hops > 15 then invalid_arg "Sim.create: at most 15 hops (packed route encoding)";
  if cfg.pseudonyms_per_device < 1 then invalid_arg "Sim.create: need at least one pseudonym";
  if cfg.verify_every < 0 || cfg.anon_sample < 0 then
    invalid_arg "Sim.create: sampling strides must be non-negative";
  if cfg.fast_keys && not cfg.fast_setup then
    invalid_arg "Sim.create: fast_keys requires fast_setup (setup exercises PEnc)";
  if not (cfg.malicious_fraction >= 0. && cfg.malicious_fraction <= 1.) then
    invalid_arg
      (Printf.sprintf "Sim.create: malicious_fraction %g is outside [0, 1]" cfg.malicious_fraction);
  if not (cfg.fraction > 0. && cfg.fraction <= 1. /. float_of_int cfg.hops) then
    invalid_arg (Printf.sprintf "Sim.create: fraction %g is outside (0, 1/%d]" cfg.fraction cfg.hops);
  let p_count = cfg.pseudonyms_per_device in
  let total = cfg.n_devices * p_count in
  let width = int_of_float (cfg.fraction *. float_of_int total) in
  if width = 0 then
    invalid_arg
      (Printf.sprintf "Sim.create: fraction %g gives hop slices of floor(%g * %d) = 0"
         cfg.fraction cfg.fraction total);
  (* Set-up draws are keyed too (the [Mix_*] purposes in rng.mli). *)
  let n_mal =
    int_of_float (Float.round (float_of_int cfg.n_devices *. cfg.malicious_fraction))
  in
  let malicious = Array.make cfg.n_devices false in
  Array.iter
    (fun i -> malicious.(i) <- true)
    (Rng.sample_without_replacement (Rng.keyed cfg.seed Rng.Mix_malicious []) n_mal cfg.n_devices);
  let keygen = if cfg.fast_keys then Elgamal.generate_insecure else Elgamal.generate in
  let devices =
    Array.init cfg.n_devices (fun id ->
        let keys =
          Array.init p_count (fun j -> keygen (Rng.keyed cfg.seed Rng.Mix_device_key [ id; j ]))
        in
        {
          id;
          keys;
          pseudonyms = Array.map (fun (pk, _) -> Elgamal.fingerprint pk) keys;
          malicious = malicious.(id);
        })
  in
  let leaves =
    Array.init (cfg.n_devices * p_count) (fun i ->
        let d = devices.(i / p_count) and j = i mod p_count in
        {
          Vmap.pseudonym = d.pseudonyms.(j);
          pk = Elgamal.pub_to_bytes (fst d.keys.(j));
          device = d.id;
        })
  in
  let vmap =
    match Vmap.build ~max_pseudonyms_per_device:p_count leaves with
    | Ok v -> v
    | Error e -> failwith ("Sim.create: vmap: " ^ e)
  in
  let bulletin = Bulletin.create () in
  ignore (Bulletin.post bulletin ~author:"aggregator" (Vmap.roots_payload vmap));
  (* The beacon is fixed only after the map is committed (§3.4). *)
  let beacon = Sha256.digest (Bulletin.head_hash bulletin) in
  {
    cfg;
    devices;
    vmap;
    bulletin;
    ranks = Hopselect.rank ~beacon total;
    width;
    round = 0;
    n_paths = 0;
    p_src = [||];
    p_dst = [||];
    p_msg = [||];
    p_hops = [||];
    p_base = [||];
    routes = Array.init cfg.n_devices (fun _ -> Ivec.create ());
    next_msg = 0;
    next_link = 0L;
    next_sid = 0;
    cur_base = 0;
    body_len = 1;
    s_link = [||];
    s_next = [||];
    s_tag = Bytes.create 0;
    s_a = [||];
    s_b = [||];
    arena_cur = Bytes.create 0;
    arena_next = Bytes.create 0;
    mailbox_head = Array.make (cfg.n_devices * p_count) (-1);
    touched = Ivec.create ();
    link_index = Hashtbl.create 4096;
    downloads = Hashtbl.create 4096;
    delivered_sid = [||];
    scratch = Ivec.create ();
    scratch2 = Ivec.create ();
    last_deliveries = [];
  }
  |> fun t ->
  (* Footprint levels, read when metrics are exported.  The source
     reads mutable sizing fields without locks: a torn read can only
     yield a slightly stale value, and an export never feeds back into
     the simulation.  Registration replaces the previous simulator's
     source, keeping the levels pointed at the live instance; the
     source holds it weakly, so a simulator its caller drops can be
     collected, after which the source reports nothing. *)
  let live = Weak.create 1 in
  Weak.set live 0 (Some t);
  Obs.Sampler.register_source ~name:"mixnet" (fun () ->
      match Weak.get live 0 with
      | None -> []
      | Some t ->
        [
          (Obs.Names.mixnet_established_paths, float_of_int t.n_paths);
          ( Obs.Names.mixnet_arena_bytes,
            float_of_int (Bytes.length t.arena_cur + Bytes.length t.arena_next) );
          ( Obs.Names.mixnet_route_entries,
            float_of_int (Array.fold_left (fun acc v -> acc + Ivec.length v) 0 t.routes) );
          (Obs.Names.mixnet_mailboxes_in_use, float_of_int (Ivec.length t.touched));
        ]);
  t

let audit_all t =
  let ok = ref true in
  Array.iter
    (fun d ->
      if not d.malicious then begin
        if
          not
            (Vmap.audit_own_pseudonyms t.vmap ~device:d.id
               ~pseudonyms:(Array.to_list d.pseudonyms))
        then ok := false;
        let rng = Rng.keyed t.cfg.seed Rng.Mix_audit [ t.round; d.id ] in
        if not (Vmap.audit_spot_check t.vmap rng ~samples:4) then ok := false
      end)
    t.devices;
  !ok

(* One churn decision per (C-round, device). *)
let online t ~round device =
  not (Rng.bernoulli (Rng.keyed t.cfg.seed Rng.Mix_churn [ round; device ]) t.cfg.churn)

(* ------------------------------------------------------------------ *)
(* Path store                                                          *)
(* ------------------------------------------------------------------ *)

(* The symmetric key of link [base + i].  Hop i (0-based) of a path
   whose links start at [base] holds the key of link base + i, its
   destination the AE key of link base + k; the hand-shake, wrap, peels
   and pickup each derive the key they use. *)
let link_key seed base i =
  Rng.bytes (Rng.keyed seed Rng.Mix_link_key [ Int64.to_int base + i ]) Onion.layer_key_size

let ensure_path_capacity t =
  let k = t.cfg.hops in
  let cap = Array.length t.p_src in
  if t.n_paths >= cap then begin
    let cap' = max 64 (2 * cap) in
    let grow a = let b = Array.make cap' 0 in Array.blit a 0 b 0 cap; b in
    t.p_src <- grow t.p_src;
    t.p_dst <- grow t.p_dst;
    t.p_msg <- grow t.p_msg;
    t.p_hops <- (let b = Array.make (cap' * k) 0 in Array.blit t.p_hops 0 b 0 (cap * k); b);
    t.p_base <- (let b = Array.make cap' 0L in Array.blit t.p_base 0 b 0 cap; b)
  end

(* ------------------------------------------------------------------ *)
(* Path setup                                                          *)
(* ------------------------------------------------------------------ *)

type setup_stats = {
  paths_requested : int;
  paths_established : int;
  paths_failed : int;
  setup_rounds : int;
  complaints : int;
}

let default_targets t =
  (* Self-loop padding (§3.2): d messages to the device's own (first)
     pseudonym. *)
  Array.init t.cfg.n_devices (fun id -> Array.make t.cfg.degree (own_pseudo t id))

(* Run the telescoping extension for one path with real key exchanges.
   Relay delays/drops are sampled per traversed link; a malicious or
   persistently-offline relay during setup surfaces as a failed
   extension, which the source detects by timeout and reports.

   Each attempt consumes k+1 link ids, failed or not, and draws from
   its own stream keyed by the first of them.  The candidate path
   occupies slot [t.n_paths] of the flat store while the handshake
   runs; only a successful extension commits it (and its route
   entries).  A failed slot is simply overwritten by the next
   attempt. *)
let establish_path t ~source ~dest ~msg_id =
  let k = t.cfg.hops in
  let base = t.next_link in
  t.next_link <- Int64.add base (Int64.of_int (k + 1));
  let rng = Rng.keyed t.cfg.seed Rng.Mix_path [ Int64.to_int base ] in
  let hop_pseudos = Hopselect.draw_path rng t.ranks ~width:t.width ~hops:k in
  ensure_path_capacity t;
  let pid = t.n_paths in
  Array.blit hop_pseudos 0 t.p_hops (pid * k) k;
  let commit () =
    t.p_src.(pid) <- source;
    t.p_dst.(pid) <- dest;
    t.p_msg.(pid) <- msg_id;
    t.p_base.(pid) <- base;
    t.n_paths <- pid + 1;
    for i = 0 to k - 1 do
      let dev = device_of t hop_pseudos.(i) in
      Ivec.push t.routes.(dev) ((pid lsl 4) lor (i + 1))
    done
  in
  if t.cfg.fast_setup then begin
    commit ();
    Ok pid
  end
  else begin
    let m1_root = Vmap.m1_root t.vmap in
    let lookup_pk idx =
      let l = Vmap.lookup t.vmap idx in
      if not (Vmap.verify_lookup ~m1_root ~index:idx l) then None
      else Vmap.pub_of_lookup l
    in
    let rec extend i =
      if i > k then Ok ()
      else begin
        (* The extension request relays over the established prefix.  A
           relay kills the extension if it stays offline through the
           exchange and its buffered retry (two consecutive samples at
           the churn rate).  Byzantine relays follow the setup protocol
           — dropping here would only deny themselves observations. *)
        let offline () = Rng.bernoulli rng t.cfg.churn in
        let relay_failure = ref false in
        for _relay = 1 to i - 1 do
          if offline () && offline () then relay_failure := true
        done;
        if !relay_failure then Error (`Dropped_at i)
        else begin
          match lookup_pk hop_pseudos.(i - 1) with
          | None -> Error (`Bad_proof i)
          | Some hop_pk ->
            (* PEnc the fresh symmetric key to the hop; the hop decrypts
               and acknowledges. *)
            let key = link_key t.cfg.seed base (i - 1) in
            let sealed = Elgamal.encrypt rng hop_pk key in
            let hop_sk = sk_of t hop_pseudos.(i - 1) in
            (match Elgamal.decrypt hop_sk sealed with
            | Some k' when Bytes.equal k' key -> extend (i + 1)
            | Some _ | None -> Error (`Bad_crypto i))
        end
      end
    in
    match extend 1 with
    | Error e -> Error e
    | Ok () -> (
      (* Final step: the last hop looks up the destination's key and the
         source establishes the end-to-end AE key (used for the §3.5
         inner layer). *)
      match lookup_pk dest with
      | None -> Error (`Bad_proof (k + 1))
      | Some dst_pk -> (
        let dkey = link_key t.cfg.seed base k in
        let sealed = Elgamal.encrypt rng dst_pk dkey in
        match Elgamal.decrypt (sk_of t dest) sealed with
        | Some k' when Bytes.equal k' dkey ->
          commit ();
          Ok pid
        | Some _ | None -> Error (`Bad_crypto (k + 1))))
  end

let setup_paths ?targets t =
  Obs.span Obs.Names.mixnet_setup ~attrs:[ ("hops", Obs.Json.Int t.cfg.hops) ] @@ fun () ->
  let targets = match targets with Some x -> x | None -> default_targets t in
  let requested = ref 0 and established = ref 0 and failed = ref 0 and complaints = ref 0 in
  Array.iteri
    (fun source dests ->
      Array.iter
        (fun dest ->
          let msg_id = t.next_msg in
          t.next_msg <- msg_id + 1;
          for _replica = 1 to t.cfg.replicas do
            incr requested;
            match establish_path t ~source ~dest ~msg_id with
            | Ok _pid -> incr established
            | Error _ ->
              incr failed;
              incr complaints;
              ignore
                (Bulletin.post t.bulletin ~author:(Printf.sprintf "device-%d" source)
                   (Bytes.of_string "complaint: path setup dropped"))
          done)
        dests)
    targets;
  let setup_rounds = Model.telescoping_rounds ~hops:t.cfg.hops in
  t.round <- t.round + setup_rounds;
  {
    paths_requested = !requested;
    paths_established = !established;
    paths_failed = !failed;
    setup_rounds;
    complaints = !complaints;
  }

(* ------------------------------------------------------------------ *)
(* Mailboxes and C-round commits                                       *)
(* ------------------------------------------------------------------ *)

let ensure_slab t cap =
  let cur = Array.length t.s_next in
  if cap > cur then begin
    let cap' = max 1024 (max cap (2 * cur)) in
    t.s_link <- (let b = Array.make cap' 0L in Array.blit t.s_link 0 b 0 cur; b);
    t.s_next <- (let b = Array.make cap' (-1) in Array.blit t.s_next 0 b 0 cur; b);
    t.s_a <- (let b = Array.make cap' 0 in Array.blit t.s_a 0 b 0 cur; b);
    t.s_b <- (let b = Array.make cap' 0 in Array.blit t.s_b 0 b 0 cur; b);
    t.s_tag <-
      (let b = Bytes.make cap' '\x00' in
       Bytes.blit t.s_tag 0 b 0 (Bytes.length t.s_tag);
       b)
  end

let ensure_arena_next t len =
  if Bytes.length t.arena_next < len then begin
    let len' = max 4096 (max len (2 * Bytes.length t.arena_next)) in
    let b = Bytes.create len' in
    (* dummies already written this round must survive the growth *)
    Bytes.blit t.arena_next 0 b 0 (Bytes.length t.arena_next);
    t.arena_next <- b
  end

let swap_arenas t ~new_base =
  let tmp = t.arena_cur in
  t.arena_cur <- t.arena_next;
  t.arena_next <- tmp;
  t.cur_base <- new_base

(* Deposit slot [sid] (whose body is already in place in the incoming
   arena) into [pseudo]'s mailbox.  Non-empty mailboxes are tracked
   incrementally here, so the commit never rescans the mailbox array. *)
let mailbox_push t ~pseudo ~link sid =
  if t.mailbox_head.(pseudo) < 0 then Ivec.push t.touched pseudo;
  t.s_next.(sid) <- t.mailbox_head.(pseudo);
  t.mailbox_head.(pseudo) <- sid;
  t.s_link.(sid) <- link;
  Hashtbl.replace t.link_index (Int64.to_int link) sid;
  if Obs.enabled () then Obs.Metrics.add m_deposited_bytes t.body_len

let clear_mailboxes t =
  for i = 0 to Ivec.length t.touched - 1 do
    t.mailbox_head.(Ivec.get t.touched i) <- -1
  done;
  Ivec.clear t.touched;
  Hashtbl.clear t.link_index

(* O(1) slot lookup by link id, replacing the per-route linear scan of
   the device's mailbox lists.  Link ids are globally unique and a slot
   under link l only ever lands in the mailbox of the device holding
   the route entry for l, so the global index answers exactly the
   former own-mailbox search.  The [Int64.equal] re-check keeps the
   comparison typed end to end. *)
let find_slot t link =
  match Hashtbl.find_opt t.link_index (Int64.to_int link) with
  | Some sid when Int64.equal t.s_link.(sid) link -> Some sid
  | Some _ | None -> None

(* Commit this round's mailboxes to the bulletin (§3.4) and verify
   inclusion proofs, playing the devices' checks: every
   [verify_every]-th non-empty mailbox, none when it is 0.  Tree
   building is sharded over the pool; each task hashes its mailbox's
   slots straight out of the body arena. *)
let commit_round t pool =
  let nb = Ivec.length t.touched in
  if nb > 0 then begin
    let boxes = Ivec.to_array t.touched in
    Array.sort Int.compare boxes;
    let every = t.cfg.verify_every in
    let arena = t.arena_cur
    and blen = t.body_len
    and base = t.cur_base
    and s_next = t.s_next
    and head = t.mailbox_head in
    let jobs =
      Array.mapi (fun i pseudo -> (pseudo, every > 0 && i mod every = 0)) boxes
    in
    let results =
      Pool.map_array pool
        (fun (pseudo, sampled) ->
          let cnt =
            let c = ref 0 and sid = ref head.(pseudo) in
            while !sid >= 0 do
              incr c;
              sid := s_next.(!sid)
            done;
            !c
          in
          let hashes = Array.make cnt Merkle.empty_hash in
          let first_off = ref 0 in
          let sid = ref head.(pseudo) in
          for j = 0 to cnt - 1 do
            let off = (!sid - base) * blen in
            if j = 0 then first_off := off;
            hashes.(j) <- Merkle.leaf_hash_sub arena ~pos:off ~len:blen;
            sid := s_next.(!sid)
          done;
          let tree = Merkle.build_hashed hashes in
          let check =
            if sampled then Some (Merkle.prove tree 0, Bytes.sub arena !first_off blen)
            else None
          in
          (Merkle.root tree, check))
        jobs
    in
    let round_tree = Merkle.build (Array.map fst results) in
    ignore
      (Bulletin.post t.bulletin ~author:"aggregator"
         (Bytes.cat (Bytes.of_string (Printf.sprintf "round %d " t.round)) (Merkle.root round_tree)));
    Array.iter
      (fun (root, check) ->
        match check with
        | Some (proof, leaf) ->
          if not (Merkle.verify ~root ~leaf proof) then
            failwith "Sim.commit_round: aggregator produced an invalid proof"
        | None -> ())
      results
  end

let record_download t dev ~key =
  let p = t.cfg.pseudonyms_per_device in
  Ivec.clear t.scratch2;
  for j = 0 to p - 1 do
    let sid = ref t.mailbox_head.((dev * p) + j) in
    while !sid >= 0 do
      Ivec.push t.scratch2 !sid;
      sid := t.s_next.(!sid)
    done
  done;
  Hashtbl.replace t.downloads key (Ivec.to_array t.scratch2)

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)
(* ------------------------------------------------------------------ *)

type round_stats = {
  messages_sent : int;
  delivered : int;
  lost : int;
  copies_delivered : int;
  copies_lost : int;
  dummies_uploaded : int;
  identified : int;
  anonymity_sets : int array;
  deposited_bytes : int;
  rounds_used : int;
}

(* Established paths grouped by logical message, in message order.  A
   message's replica paths are committed one after another and message
   ids only grow, so a group is a run of equal [p_msg]. *)
let groups_of t =
  let acc = ref [] and start = ref 0 in
  for pid = 1 to t.n_paths do
    if pid = t.n_paths || t.p_msg.(pid) <> t.p_msg.(!start) then begin
      acc := Array.init (pid - !start) (fun i -> !start + i) :: !acc;
      start := pid
    end
  done;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Adversary analysis                                                  *)
(* ------------------------------------------------------------------ *)

(* Candidate-sender sets, scale-aware (DESIGN.md §12): [Full] for
   "no information", a sorted array while the set stays below the
   density threshold (~n/64, where the bitset becomes the cheaper
   representation), a bitset with a cached popcount above it.  At small
   n everything densifies immediately and the arithmetic matches the
   former all-bitset code ([Full] behaves as the all-ones set). *)
type cset = Full | Sparse of int array | Dense of Bytes.t * int

type analysis = {
  a_messages : int;
  a_delivered : int;
  a_lost : int;
  a_copies_delivered : int;
  a_copies_lost : int;
  a_identified : int;
  a_anon : int array;
}

let analyze t ~groups ~query_round ~n =
  let k = t.cfg.hops in
  let dense_threshold = max 8 (n / 64) in
  let set_bytes = (n + 7) / 8 in
  let popcount b =
    let c = ref 0 in
    for i = 0 to set_bytes - 1 do
      let v = ref (Bytes.get_uint8 b i) in
      while !v <> 0 do
        v := !v land (!v - 1);
        incr c
      done
    done;
    !c
  in
  let set_bit b x =
    Bytes.set_uint8 b (x / 8) (Bytes.get_uint8 b (x / 8) lor (1 lsl (x mod 8)))
  in
  let mem_set s x =
    match s with
    | Full -> true
    | Dense (b, _) -> Bytes.get_uint8 b (x / 8) land (1 lsl (x mod 8)) <> 0
    | Sparse a ->
      let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) = x then found := true
        else if a.(mid) < x then lo := mid + 1
        else hi := mid - 1
      done;
      !found
  in
  let of_sorted a =
    if Array.length a >= dense_threshold then begin
      let b = Bytes.make set_bytes '\x00' in
      Array.iter (set_bit b) a;
      Dense (b, Array.length a)
    end
    else Sparse a
  in
  let sort_dedup a =
    Array.sort Int.compare a;
    let m = ref 0 in
    Array.iteri
      (fun i x ->
        if i = 0 || x <> a.(!m - 1) then begin
          a.(!m) <- x;
          incr m
        end)
      a;
    Array.sub a 0 !m
  in
  let union_list sets =
    if Array.exists (fun s -> match s with Full -> true | _ -> false) sets then Full
    else if Array.for_all (fun s -> match s with Sparse _ -> true | _ -> false) sets
    then begin
      let total =
        Array.fold_left
          (fun acc s -> match s with Sparse a -> acc + Array.length a | _ -> acc)
          0 sets
      in
      let buf = Array.make (max 1 total) 0 in
      let pos = ref 0 in
      Array.iter
        (function
          | Sparse a ->
            Array.blit a 0 buf !pos (Array.length a);
            pos := !pos + Array.length a
          | _ -> ())
        sets;
      of_sorted (sort_dedup (Array.sub buf 0 total))
    end
    else begin
      let b = Bytes.make set_bytes '\x00' in
      Array.iter
        (function
          | Sparse a -> Array.iter (set_bit b) a
          | Dense (d, _) ->
            for i = 0 to set_bytes - 1 do
              Bytes.set_uint8 b i (Bytes.get_uint8 b i lor Bytes.get_uint8 d i)
            done
          | Full -> ())
        sets;
      Dense (b, popcount b)
    end
  in
  let sparse_filter a other =
    let buf = Array.make (max 1 (Array.length a)) 0 in
    let m = ref 0 in
    Array.iter
      (fun x ->
        if mem_set other x then begin
          buf.(!m) <- x;
          incr m
        end)
      a;
    Sparse (Array.sub buf 0 !m)
  in
  let inter2 a b =
    match (a, b) with
    | Full, x | x, Full -> x
    | Sparse sa, other -> sparse_filter sa other
    | other, Sparse sb -> sparse_filter sb other
    | Dense (da, _), Dense (db, _) ->
      let c = Bytes.create set_bytes in
      for i = 0 to set_bytes - 1 do
        Bytes.set_uint8 c i (Bytes.get_uint8 da i land Bytes.get_uint8 db i)
      done;
      Dense (c, popcount c)
  in
  let size_set = function Full -> n | Sparse a -> Array.length a | Dense (_, pc) -> pc in
  (* Backward closure (§6.3).  Memoized per (device, C-round): the
     candidates of every slot a device re-uploaded in round r depend
     only on its round-r download set, not on the slot.  The recursion
     terminates without a cycle-break: a malicious forward points at a
     strictly earlier sid, and a download set only contains sids from
     strictly earlier C-rounds. *)
  let memo = Hashtbl.create 1024 in
  let rec cand_sid sid =
    match Bytes.get_uint8 t.s_tag sid with
    | 0 (* Deposited *) -> Sparse [| t.s_a.(sid) |]
    | 2 (* Forwarded_malicious *) -> cand_sid t.s_a.(sid)
    | 1 | 3 (* Forwarded_honest / Dummy_honest *) ->
      let off = t.s_b.(sid) - query_round - 1 in
      if off < 0 || off >= k then Full else dev_round ((t.s_a.(sid) * k) + off)
    | _ (* Dummy_malicious *) -> Full
  and dev_round key =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v =
        match Hashtbl.find_opt t.downloads key with
        | Some sids -> union_list (Array.map cand_sid sids)
        | None -> Full
      in
      Hashtbl.replace memo key v;
      v
  in
  (* Per logical message: delivery, anonymity, identification. *)
  let messages_sent = ref 0 and delivered = ref 0 and lost = ref 0 in
  let copies_delivered = ref 0 and copies_lost = ref 0 and identified = ref 0 in
  let anon = ref [] in
  let anon_stride = max 1 t.cfg.anon_sample in
  Array.iter
    (fun pids ->
      incr messages_sent;
      let n_arrived = ref 0 in
      Array.iter (fun pid -> if t.delivered_sid.(pid) >= 0 then incr n_arrived) pids;
      copies_delivered := !copies_delivered + !n_arrived;
      copies_lost := !copies_lost + Array.length pids - !n_arrived;
      if !n_arrived = 0 then incr lost
      else begin
        (* Replica intersection (§6.3): the adversary links the copies
           and intersects their candidate sets.  With [anon_sample > 1]
           only every stride-th delivered message is closed over; the
           delivery and identification accounting still covers all. *)
        if !delivered mod anon_stride = 0 then begin
          let acc = ref Full in
          Array.iter
            (fun pid ->
              let sid = t.delivered_sid.(pid) in
              if sid >= 0 then acc := inter2 !acc (cand_sid sid))
            pids;
          anon := min n (size_set !acc) :: !anon
        end;
        incr delivered
      end;
      (* Full identification: a replica path made of malicious hops. *)
      let fully_malicious =
        Array.exists
          (fun pid ->
            let all = ref true in
            for i = 0 to k - 1 do
              if not t.devices.(device_of t t.p_hops.((pid * k) + i)).malicious then
                all := false
            done;
            !all)
          pids
      in
      if fully_malicious then incr identified)
    groups;
  {
    a_messages = !messages_sent;
    a_delivered = !delivered;
    a_lost = !lost;
    a_copies_delivered = !copies_delivered;
    a_copies_lost = !copies_lost;
    a_identified = !identified;
    a_anon = Array.of_list !anon;
  }

let run_query_round_impl t ~payload_of =
  let k = t.cfg.hops in
  let query_round = t.round in
  let pool = Pool.default () in
  let groups = groups_of t in
  let ng = Array.length groups in
  (* Per-query-round lifecycle: sids restart at 0, the observer tables
     are emptied, delivery marks reset.  The slab, arenas and download
     table keep their high-water capacity, so repeated rounds reach a
     fixed footprint instead of growing without bound. *)
  t.next_sid <- 0;
  t.cur_base <- 0;
  Hashtbl.clear t.downloads;
  if Array.length t.delivered_sid < t.n_paths then
    t.delivered_sid <- Array.make (max 1 t.n_paths) (-1)
  else Array.fill t.delivered_sid 0 (Array.length t.delivered_sid) (-1);
  clear_mailboxes t;
  let deposits_count = ref 0 in
  (* ---- Round 0: deposits ----
     Three phases, so the result never depends on the domain count.
     Phase 1 (sequential) decides sender churn and lays out the arena
     in message order.  Phase 2 runs the expensive crypto — payload
     construction, inner AE layer, onion wrapping — on the pool, each
     task writing its copies' disjoint arena ranges; [payload_of] must
     be pure (see the mli).  Phase 3 (sequential) links the slots into
     the mailboxes in the same order. *)
  let g_online = Array.make (max 1 ng) false in
  let g_offs = Array.make (max 1 ng) [||] in  (* per-copy slot index *)
  let dep_pid = Ivec.create () in
  Array.iteri
    (fun gi pids ->
      let p0 = pids.(0) in
      if online t ~round:query_round t.p_src.(p0) then begin
        g_online.(gi) <- true;
        g_offs.(gi) <-
          Array.map
            (fun pid ->
              let slot = Ivec.length dep_pid in
              Ivec.push dep_pid pid;
              slot)
            pids
      end)
    groups;
  (* Build the first sending group's payload here for the slot length:
     every slot of a round shares it, so arena offsets are just
     slot * body_len.  That group's wrap task reuses these bytes
     ([payload_of] is pure), so no payload is built twice. *)
  let probe_gi =
    let gi = ref 0 in
    while !gi < ng && not g_online.(!gi) do
      incr gi
    done;
    !gi
  in
  let probe_payload, probe_plen =
    if probe_gi < ng then begin
      let p0 = groups.(probe_gi).(0) in
      let b = payload_of ~source:t.p_src.(p0) ~dest:t.p_dst.(p0) in
      (b, Bytes.length b)
    end
    else (Bytes.empty, -1)
  in
  t.body_len <- (if probe_plen < 0 then 1 else probe_plen + Onion.inner_overhead);
  let n_dep = Ivec.length dep_pid in
  (* Capacity planning from the (round-invariant) path and route
     tables rather than this round's churn-dependent deposit counts:
     the slab and arenas hit their high-water marks in the first
     query round and [footprint] stays flat thereafter.  Stage [s]
     can deposit at most one slot per route entry tagged [s]. *)
  let stage_counts = Array.make (k + 1) 0 in
  Array.iter
    (fun rv ->
      for i = 0 to Ivec.length rv - 1 do
        let s = Ivec.get rv i land 0xF in
        stage_counts.(s) <- stage_counts.(s) + 1
      done)
    t.routes;
  ensure_slab t (t.n_paths + Array.fold_left ( + ) 0 stage_counts);
  ensure_arena_next t (t.n_paths * t.body_len);
  for i = 0 to n_dep - 1 do
    Bytes.set_uint8 t.s_tag i tag_deposited;
    t.s_a.(i) <- t.p_src.(Ivec.get dep_pid i)
  done;
  t.next_sid <- n_dep;
  let wrap_tasks =
    let acc = ref [] in
    Array.iteri
      (fun gi pids -> if g_online.(gi) then acc := (gi, pids, g_offs.(gi)) :: !acc)
      groups;
    Array.of_list (List.rev !acc)
  in
  let blen = t.body_len
  and arena_out = t.arena_next
  and seed = t.cfg.seed
  and p_base = t.p_base
  and p_src = t.p_src
  and p_dst = t.p_dst in
  let wrap_res =
    Obs.span Obs.Names.mixnet_deposit @@ fun () ->
    Pool.map_array pool
      (fun (gi, pids, offs) ->
        let p0 = pids.(0) in
        let payload =
          if gi = probe_gi then probe_payload else payload_of ~source:p_src.(p0) ~dest:p_dst.(p0)
        in
        let plen = Bytes.length payload in
        (* Guard the arena: a task whose payload length disagrees with
           the probe writes nothing; the merge raises. *)
        if plen <> probe_plen then plen
        else begin
          Array.iteri
            (fun copy pid ->
              let key = link_key seed p_base.(pid) in
              let inner = Onion.seal_inner ~key:(key k) ~round:query_round payload in
              let hop_keys = Array.init k key in
              Onion.wrap_into ~hop_keys ~round:query_round ~inner ~dst:arena_out
                ~dst_pos:(offs.(copy) * blen))
            pids;
          plen
        end)
      wrap_tasks
  in
  Array.iter
    (fun plen ->
      if plen <> probe_plen then
        invalid_arg "Sim.run_query_round_with: payloads must have equal length")
    wrap_res;
  swap_arenas t ~new_base:0;
  for i = 0 to n_dep - 1 do
    let pid = Ivec.get dep_pid i in
    mailbox_push t ~pseudo:(t.p_hops.(pid * k)) ~link:(t.p_base.(pid)) i
  done;
  deposits_count := n_dep;
  commit_round t pool;
  t.round <- t.round + 1;
  (* ---- Rounds 1..k: forwarding ----
     Same three-phase shape: the sequential pass decides churn, mixes,
     writes dummy bodies and allocates sids in device order, then
     shuffled order; only the layer-peeling of honest forwards — pure
     symmetric crypto — runs on the pool, straight from the previous
     round's arena into the next one's. *)
  let dummies = ref 0 in
  let write_dummy sid off =
    Onion.dummy_into
      (Rng.keyed seed Rng.Mix_dummy [ t.round; sid ])
      ~dst:t.arena_next ~dst_pos:off ~length:t.body_len
  in
  for stage = 1 to k do
    Obs.span Obs.Names.mixnet_stage ~attrs:[ ("stage", Obs.Json.Int stage) ] @@ fun () ->
    let new_base = t.next_sid in
    ensure_arena_next t (stage_counts.(stage) * t.body_len);
    let dep_route = Ivec.create () in  (* deposit order -> packed route *)
    let peel_pids = Ivec.create () in
    let peel_srcs = Ivec.create () in
    let peel_dsts = Ivec.create () in
    for dev = 0 to t.cfg.n_devices - 1 do
      Ivec.clear t.scratch;
      let rv = t.routes.(dev) in
      for i = 0 to Ivec.length rv - 1 do
        let e = Ivec.get rv i in
        if e land 0xF = stage then Ivec.push t.scratch e
      done;
      if Ivec.length t.scratch > 0 then begin
        let malicious = t.devices.(dev).malicious in
        if online t ~round:t.round dev then begin
          record_download t dev ~key:((dev * k) + (stage - 1));
          (* Process in a random order: the mixing step. *)
          let expected = Ivec.to_array t.scratch in
          Rng.shuffle (Rng.keyed seed Rng.Mix_shuffle [ t.round; dev ]) expected;
          Array.iter
            (fun e ->
              let pid = e lsr 4 in
              let in_link = Int64.add t.p_base.(pid) (Int64.of_int (stage - 1)) in
              let sid = t.next_sid in
              t.next_sid <- sid + 1;
              ensure_slab t t.next_sid;
              let off = (sid - new_base) * t.body_len in
              ensure_arena_next t (off + t.body_len);
              (match find_slot t in_link with
              | Some src_sid when not malicious ->
                Bytes.set_uint8 t.s_tag sid tag_fwd_honest;
                t.s_a.(sid) <- dev;
                t.s_b.(sid) <- t.round;
                Ivec.push peel_pids pid;
                Ivec.push peel_srcs src_sid;
                Ivec.push peel_dsts sid
              | Some src_sid ->
                (* Byzantine: reveal the mapping to the adversary and
                   covertly drop, masking with a dummy (§3.5). *)
                incr dummies;
                Bytes.set_uint8 t.s_tag sid tag_fwd_malicious;
                t.s_a.(sid) <- src_sid;
                write_dummy sid off
              | None ->
                (* Missing input: cover with a dummy so the traffic
                   pattern is unchanged (§3.5). *)
                incr dummies;
                if malicious then Bytes.set_uint8 t.s_tag sid tag_dummy_malicious
                else begin
                  Bytes.set_uint8 t.s_tag sid tag_dummy_honest;
                  t.s_a.(sid) <- dev;
                  t.s_b.(sid) <- t.round
                end;
                write_dummy sid off);
              Ivec.push dep_route e)
            expected
        end
      end
    done;
    let n_peel = Ivec.length peel_pids in
    let peel_jobs =
      Array.init n_peel (fun i ->
          (Ivec.get peel_pids i, Ivec.get peel_srcs i, Ivec.get peel_dsts i))
    in
    let arena_src = t.arena_cur
    and arena_dst = t.arena_next
    and blen = t.body_len
    and base_src = t.cur_base
    and st = stage - 1 in
    ignore
      (Pool.map_array pool
         (fun (pid, src_sid, dst_sid) ->
           let key = link_key seed p_base.(pid) st in
           Onion.peel_into ~key ~round:query_round ~src:arena_src
             ~src_pos:((src_sid - base_src) * blen)
             ~dst:arena_dst
             ~dst_pos:((dst_sid - new_base) * blen)
             blen)
         peel_jobs);
    if Obs.enabled () then Obs.Metrics.add m_layers_peeled n_peel;
    (* Clear processed mailboxes, link the new deposits in. *)
    clear_mailboxes t;
    swap_arenas t ~new_base;
    for i = 0 to Ivec.length dep_route - 1 do
      let e = Ivec.get dep_route i in
      let pid = e lsr 4 in
      let out_link = Int64.add t.p_base.(pid) (Int64.of_int stage) in
      let next_pseudo =
        if stage = k then t.p_dst.(pid) else t.p_hops.((pid * k) + stage)
      in
      mailbox_push t ~pseudo:next_pseudo ~link:out_link (new_base + i)
    done;
    deposits_count := !deposits_count + Ivec.length dep_route;
    commit_round t pool;
    t.round <- t.round + 1
  done;
  (* ---- Destinations pick up ----
     Slot lookup and replica dedup stay sequential in the original
     message order; the AE open of each found copy runs on the pool. *)
  let final_link pid = Int64.add t.p_base.(pid) (Int64.of_int k) in
  let open_pids = Ivec.create () and open_sids = Ivec.create () in
  Array.iter
    (fun pids ->
      Array.iter
        (fun pid ->
          match find_slot t (final_link pid) with
          | Some sid ->
            Ivec.push open_pids pid;
            Ivec.push open_sids sid
          | None -> ())
        pids)
    groups;
  let arena_in = t.arena_cur and base_in = t.cur_base and blen = t.body_len in
  let opened =
    Obs.span Obs.Names.mixnet_pickup @@ fun () ->
    Pool.map_array pool
      (fun (pid, sid) ->
        let key = link_key seed p_base.(pid) k in
        let body = Bytes.sub arena_in ((sid - base_in) * blen) blen in
        Onion.open_inner ~key ~round:query_round body)
      (Array.init (Ivec.length open_pids) (fun i ->
           (Ivec.get open_pids i, Ivec.get open_sids i)))
  in
  let deliveries = ref [] in
  let next_open = ref 0 in
  Array.iter
    (fun pids ->
      let got_one = ref false in
      Array.iter
        (fun pid ->
          match find_slot t (final_link pid) with
          | None -> ()
          | Some sid -> (
            let result = opened.(!next_open) in
            incr next_open;
            match result with
            | Some body ->
              t.delivered_sid.(pid) <- sid;
              (* The destination deduplicates replica copies. *)
              if not !got_one then begin
                got_one := true;
                deliveries := (t.p_src.(pid), t.p_dst.(pid), body) :: !deliveries
              end
            | None -> ()))
        pids)
    groups;
  clear_mailboxes t;
  t.last_deliveries <- List.rev !deliveries;
  (* ---- adversary analysis ---- *)
  let n = t.cfg.n_devices in
  let stats = analyze t ~groups ~query_round ~n in
  t.round <- t.round + (k + 1);
  {
    messages_sent = stats.a_messages;
    delivered = stats.a_delivered;
    lost = stats.a_lost;
    copies_delivered = stats.a_copies_delivered;
    copies_lost = stats.a_copies_lost;
    dummies_uploaded = !dummies;
    identified = stats.a_identified;
    anonymity_sets = stats.a_anon;
    deposited_bytes = !deposits_count * t.body_len;
    rounds_used = Model.forwarding_rounds ~hops:k;
  }

let run_query_round_with t ~payload_of =
  Obs.span Obs.Names.mixnet_round ~attrs:[ ("hops", Obs.Json.Int t.cfg.hops) ] @@ fun () ->
  let stats = run_query_round_impl t ~payload_of in
  if Obs.enabled () then begin
    Obs.Metrics.add m_dummies stats.dummies_uploaded;
    Array.iter (fun s -> Obs.Metrics.observe h_anonymity (float_of_int s)) stats.anonymity_sets
  end;
  stats

let run_query_round t ~payload =
  run_query_round_with t ~payload_of:(fun ~source:_ ~dest:_ -> payload)

let deliveries t = t.last_deliveries

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type footprint = {
  established_paths : int;
  route_entries : int;
  slot_capacity : int;
  arena_bytes : int;
  download_entries : int;
  link_index_entries : int;
  mailboxes_in_use : int;
}

let footprint t =
  {
    established_paths = t.n_paths;
    route_entries = Array.fold_left (fun acc v -> acc + Ivec.length v) 0 t.routes;
    slot_capacity = Array.length t.s_next;
    arena_bytes = Bytes.length t.arena_cur + Bytes.length t.arena_next;
    download_entries = Hashtbl.length t.downloads;
    link_index_entries = Hashtbl.length t.link_index;
    mailboxes_in_use = Ivec.length t.touched;
  }
