(* Structured tracing, metrics and levels for the query pipeline.

   Design constraints (see DESIGN.md §8 and §13):
   - The disabled path of every instrumentation point (spans, instants
     and metric updates) is a single load of [enabled_flag] plus a
     branch; no allocation, no clock read, no atomic write happens
     unless tracing is on.  Levels (heap words, the pool's size, a
     simulator's footprint) cost instrumented code nothing: their
     owners register a source, and the exporters read every source
     when they run.  The flag is write-once configuration: set from the
     environment at startup or by [enable] before a run, never
     mid-phase.
   - The per-domain span buffers are the one event store: a span is an
     interval, an instant (an injected fault, say) a closed span of
     zero length.  Each domain owns a growable buffer reached through
     Domain.DLS, so instrumented code inside Pool workers records
     without taking any lock (the global registry mutex is touched once
     per domain, at first use).
   - Observability never draws from any [Rng.t] and never feeds back
     into results: query output, DP noise and degradation reports are
     byte-identical with tracing on or off.  Timestamps exist only in
     exported traces. *)

(* ------------------------------------------------------------------ *)
(* JSON (the one encoder/parser in the tree; bench and the exporters   *)
(* share it)                                                           *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* The shortest of %.15g and %.17g that parses back to [f] (every
     double round-trips at 17 digits), so a ledger's epsilons re-sum to
     the accountant's total exactly.  JSON has no infinity or NaN:
     those are written null.  Every output carries a '.' or an
     exponent, so the parser reads it back as [Num], not [Int]: the
     integer branch covers each integer that %.17g would print without
     one, and a non-integer (below 2^52) always shows a fraction. *)
  let num_to_string f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e17 then Printf.sprintf "%.1f" f
    else begin
      let s = Printf.sprintf "%.15g" f in
      if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f
    end

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Num f -> Buffer.add_string buf (num_to_string f)
    | Str s -> add_escaped buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buf buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    to_buf buf j;
    Buffer.contents buf

  (* Streamed emission: the document is written piece by piece through
     a reused scratch buffer (needed only for string escaping), so the
     peak allocation is one escaped string, not the whole document. *)
  let to_channel oc j =
    let scratch = Buffer.create 64 in
    let str s =
      Buffer.clear scratch;
      add_escaped scratch s;
      Buffer.output_buffer oc scratch
    in
    let rec go = function
      | Null -> output_string oc "null"
      | Bool b -> output_string oc (if b then "true" else "false")
      | Int i -> output_string oc (string_of_int i)
      | Num f -> output_string oc (num_to_string f)
      | Str s -> str s
      | List xs ->
        output_char oc '[';
        List.iteri
          (fun i x ->
            if i > 0 then output_char oc ',';
            go x)
          xs;
        output_char oc ']'
      | Obj kvs ->
        output_char oc '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_char oc ',';
            str k;
            output_char oc ':';
            go v)
          kvs;
        output_char oc '}'
    in
    go j

  exception Parse_fail of string

  (* Maximum container nesting the parser accepts.  The recursive
     descent would otherwise turn "[[[[…" into a stack overflow — a
     hard crash rather than an [Error] — and the ledger files make the
     parser load-bearing for untrusted input. *)
  let max_depth = 512

  (* A small strict parser, enough to round-trip everything the emitter
     above produces (the exporter tests lean on this).  \uXXXX escapes
     decode to UTF-8; surrogate pairs combine into one code point, and
     lone or misordered surrogates are an error. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let peek_is c = !pos < n && Char.equal s.[!pos] c in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    (* Exactly four hex digits; [int_of_string "0x…"] would accept
       OCaml-isms like underscores. *)
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = ref 0 in
      for k = 0 to 3 do
        let c = s.[!pos + k] in
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> fail "bad \\u escape"
        in
        v := (!v lsl 4) lor d
      done;
      pos := !pos + 4;
      !v
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'; advance ()
            | '\\' -> Buffer.add_char buf '\\'; advance ()
            | '/' -> Buffer.add_char buf '/'; advance ()
            | 'b' -> Buffer.add_char buf '\b'; advance ()
            | 'f' -> Buffer.add_char buf '\012'; advance ()
            | 'n' -> Buffer.add_char buf '\n'; advance ()
            | 'r' -> Buffer.add_char buf '\r'; advance ()
            | 't' -> Buffer.add_char buf '\t'; advance ()
            | 'u' ->
              advance ();
              let code = hex4 () in
              let cp =
                if code >= 0xD800 && code <= 0xDBFF then begin
                  (* High surrogate: only valid immediately followed by
                     an escaped low surrogate. *)
                  if
                    not (!pos + 2 <= n && Char.equal s.[!pos] '\\'
                        && Char.equal s.[!pos + 1] 'u')
                  then fail "unpaired high surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired high surrogate";
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else if code >= 0xDC00 && code <= 0xDFFF then
                  fail "unpaired low surrogate"
                else code
              in
              add_utf8 buf cp
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
          | c -> Buffer.add_char buf c; advance (); go ()
        end
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E'
      then begin
        match float_of_string_opt tok with
        | Some f -> Num f
        | None -> fail "bad number"
      end
      else begin
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Num f
          | None -> fail "bad number")
      end
    in
    let rec parse_value depth =
      if depth > max_depth then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek_is '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek_is ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_fail msg -> Error msg

  let member key = function
    | Obj kvs ->
      List.find_map (fun (k, v) -> if String.equal k key then Some v else None) kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* The switches                                                        *)
(* ------------------------------------------------------------------ *)

(* lint: allow determinism — wall-clock feeds span timestamps only; trace
   content is diagnostic and never enters query results *)
let now () = Unix.gettimeofday ()

let env_truthy var =
  match Sys.getenv_opt var with
  | Some ("1" | "true" | "on" | "yes") -> true
  | Some _ | None -> false

let enabled_flag = Atomic.make (env_truthy "MYCELIUM_TRACE")

let enabled () = Atomic.get enabled_flag

(* Trace epoch: all span timestamps are seconds since the last enable
   (or process start, for MYCELIUM_TRACE). *)
let epoch = Atomic.make (now ())

let now_s () = now () -. Atomic.get epoch

let enable () =
  if not (Atomic.get enabled_flag) then begin
    Atomic.set epoch (now ());
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Metric-name registry                                                *)
(* ------------------------------------------------------------------ *)

(* Every metric, level and span name used by library code is declared
   here, except the runtime's stage spans, which the runtime's one
   stage list names; mycelium-lint's obs-guard rule flags a
   registration, span or instant that passes a bare string literal
   instead of one of these constants, so the full vocabulary of
   exported names stays greppable in one place.  Bench and test
   executables are free zones and may use ad-hoc names. *)
module Names = struct
  (* lib/math — ring layer *)
  let rq_limb_ntt_muls = "rq.limb_ntt_muls"
  let rq_limb_transforms = "rq.limb_transforms"

  (* lib/crypto *)
  let sha256_bytes = "sha256.bytes"
  let chacha20_bytes = "chacha20.bytes"

  (* lib/bgv *)
  let bgv_encrypts = "bgv.encrypts"
  let bgv_ciphertext_muls = "bgv.ciphertext_muls"
  let bgv_relinearizations = "bgv.relinearizations"

  (* lib/parallel *)
  let pool_chunks_run = "pool.chunks_run"
  let pool_task_exceptions = "pool.task_exceptions"
  let pool_domains = "pool.domains"

  (* lib/faults — mirrors of [Injector.report] *)
  let faults_substituted_contributions = "faults.substituted_contributions"
  let faults_dropped_messages = "faults.dropped_messages"
  let faults_delayed_messages = "faults.delayed_messages"
  let faults_channel_retries = "faults.channel_retries"
  let faults_backoff_units = "faults.backoff_units"
  let faults_excluded_committee_members = "faults.excluded_committee_members"
  let faults_forged_rejected = "faults.forged_rejected"
  let faults_aggregator_restarts = "faults.aggregator_restarts"
  let faults_decryption_attempts = "faults.decryption_attempts"

  (* lib/mixnet *)
  let mixnet_deposited_bytes = "mixnet.deposited_bytes"
  let onion_layers_peeled = "onion.layers_peeled"
  let mixnet_dummies_uploaded = "mixnet.dummies_uploaded"
  let mixnet_anonymity_set = "mixnet.anonymity_set"
  let mixnet_established_paths = "mixnet.established_paths"
  let mixnet_arena_bytes = "mixnet.arena_bytes"
  let mixnet_route_entries = "mixnet.route_entries"
  let mixnet_mailboxes_in_use = "mixnet.mailboxes_in_use"

  (* lib/serve — the batched serving layer *)
  let serve_admitted = "serve.admitted"
  let serve_rejected = "serve.rejected"
  let serve_batches = "serve.batches"
  let serve_batch_members = "serve.batch_members"
  let serve_cache_hits = "serve.cache_hits"
  let serve_cache_misses = "serve.cache_misses"
  let serve_cache_evictions = "serve.cache_evictions"

  (* Spans other than the runtime's stages *)
  let runtime_init = "runtime.init"
  let sumtree_level = "sumtree.level"
  let pool_job = "pool.job"
  let mixnet_setup = "mixnet.setup"
  let mixnet_round = "mixnet.round"
  let mixnet_deposit = "mixnet.deposit"
  let mixnet_stage = "mixnet.stage"
  let mixnet_pickup = "mixnet.pickup"
  let rq_mul = "rq.mul"
  let rq_dot = "rq.dot"
  let bgv_mul = "bgv.mul"

  (* Instants: each fault [Injector] injects *)
  let fault_drop = "fault.drop"
  let fault_retry = "fault.retry"
  let fault_backoff = "fault.backoff"
  let fault_delay = "fault.delay"
  let fault_substituted = "fault.substituted"
  let fault_excluded_committee = "fault.excluded_committee"
  let fault_forged_rejected = "fault.forged_rejected"
  let fault_aggregator_restart = "fault.aggregator_restart"
  let decrypt_fallback = "decrypt.fallback"

  (* The built-in levels (Gc.quick_stat) *)
  let gc_top_heap_words = "gc.top_heap_words"
  let gc_heap_words = "gc.heap_words"
  let gc_minor_collections = "gc.minor_collections"
  let gc_major_collections = "gc.major_collections"
  let gc_promoted_words = "gc.promoted_words"

end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_attrs : (string * Json.t) list;
  sp_dom : int;  (* numeric domain id *)
  sp_depth : int;  (* nesting depth within its domain at start *)
  sp_seq : int;  (* per-domain start order *)
  sp_start : float;  (* seconds since trace epoch *)
  mutable sp_end : float;  (* NaN while still open *)
}

type dbuf = {
  dom_id : int;
  mutable items : span array;
  mutable len : int;
  mutable depth : int;
  mutable seq : int;
}

let registry : dbuf list ref = ref []
let registry_mutex = Mutex.create ()

let dbuf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom_id = (Domain.self () :> int); items = [||]; len = 0; depth = 0; seq = 0 }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let my_buf () = Domain.DLS.get dbuf_key

let push b sp =
  if b.len = Array.length b.items then begin
    let cap = max 64 (2 * Array.length b.items) in
    let items = Array.make cap sp in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- sp;
  b.len <- b.len + 1

(* Push one span starting now on the domain buffer [b], at its current
   depth: open (its end NaN until [traced] closes it) or, for an
   instant, already closed at zero length. *)
let record b ~closed name attrs =
  let t = now () -. Atomic.get epoch in
  let sp =
    {
      sp_name = name;
      sp_attrs = attrs;
      sp_dom = b.dom_id;
      sp_depth = b.depth;
      sp_seq = b.seq;
      sp_start = t;
      sp_end = (if closed then t else Float.nan);
    }
  in
  push b sp;
  b.seq <- b.seq + 1;
  sp

let traced attrs name f =
  let b = my_buf () in
  let sp = record b ~closed:false name attrs in
  b.depth <- b.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      b.depth <- b.depth - 1;
      sp.sp_end <- now () -. Atomic.get epoch)
    f

let span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f () else traced attrs name f

(* An instant nests inside whatever span is open around it and exports
   through the same buffer and the same Chrome event as a span. *)
let instant ?(attrs = []) name =
  if Atomic.get enabled_flag then ignore (record (my_buf ()) ~closed:true name attrs)

(* Hot-op sampling: record one span for every [every]-th call through
   the sampler; all other calls (and every call while disabled) just
   run [f].  The counter only advances while tracing is on, so the
   disabled path stays a branch. *)
type sampler = { every : int; calls : int Atomic.t }

let sampler ~every =
  if every < 1 then invalid_arg "Obs.sampler: every must be >= 1";
  { every; calls = Atomic.make 0 }

let sampled_span s ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let k = Atomic.fetch_and_add s.calls 1 in
    if k mod s.every = 0 then traced attrs name f else f ()
  end

let all_spans () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  let out =
    List.concat_map (fun b -> Array.to_list (Array.sub b.items 0 b.len)) bufs
  in
  List.sort
    (fun a b ->
      match Float.compare a.sp_start b.sp_start with
      | 0 -> (
        match Int.compare a.sp_dom b.sp_dom with
        | 0 -> Int.compare a.sp_seq b.sp_seq
        | c -> c)
      | c -> c)
    out

let span_count () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.fold_left (fun acc b -> acc + b.len) 0 bufs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { c_name : string; c : int Atomic.t }
  type gauge = { g_name : string; g : float Atomic.t }

  type histogram = {
    h_name : string;
    bounds : float array;  (* ascending upper bounds; +inf implicit *)
    counts : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
    h_sum : float Atomic.t;
  }

  type metric = C of counter | G of gauge | H of histogram

  let table : (string, metric) Hashtbl.t = Hashtbl.create 64
  let table_mutex = Mutex.create ()

  let register name mk =
    Mutex.lock table_mutex;
    let m =
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
        let m = mk () in
        Hashtbl.replace table name m;
        m
    in
    Mutex.unlock table_mutex;
    m

  let counter name =
    match register name (fun () -> C { c_name = name; c = Atomic.make 0 }) with
    | C c -> c
    | G _ | H _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " registered with another kind")

  let gauge name =
    match register name (fun () -> G { g_name = name; g = Atomic.make 0. }) with
    | G g -> g
    | C _ | H _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " registered with another kind")

  (* Default buckets: powers of two from 1 to 2^20 — generic enough for
     counts and for microsecond-scale durations expressed in us. *)
  let default_buckets = Array.init 21 (fun i -> Float.of_int (1 lsl i))

  let histogram ?(buckets = default_buckets) name =
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Obs.Metrics.histogram: buckets must be strictly ascending")
      buckets;
    match
      register name (fun () ->
          H
            {
              h_name = name;
              bounds = Array.copy buckets;
              counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0.;
            })
    with
    | H h -> h
    | C _ | G _ -> invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " registered with another kind")

  let incr c = if Atomic.get enabled_flag then Atomic.incr c.c
  let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c n)
  let value c = Atomic.get c.c

  let gauge_value g = Atomic.get g.g

  (* First bucket whose upper bound is >= v; the last slot is the
     overflow bucket. *)
  let bucket_index h v =
    let n = Array.length h.bounds in
    let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
    go 0

  let rec atomic_add_float a x =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

  let observe h v =
    if Atomic.get enabled_flag then begin
      Atomic.incr h.counts.(bucket_index h v);
      atomic_add_float h.h_sum v
    end

  let histogram_counts h = Array.map Atomic.get h.counts
  let histogram_sum h = Atomic.get h.h_sum
  let histogram_count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts

  let reset_values () =
    Mutex.lock table_mutex;
    (* lint: allow determinism — per-entry reset is order-insensitive *)
    Hashtbl.iter
      (fun _ m ->
        match m with
        | C c -> Atomic.set c.c 0
        | G g -> Atomic.set g.g 0.
        | H h ->
          Array.iter (fun c -> Atomic.set c 0) h.counts;
          Atomic.set h.h_sum 0.)
      table;
    Mutex.unlock table_mutex

  let sorted_metrics () =
    Mutex.lock table_mutex;
    (* lint: allow determinism — fold order is erased by the sort below *)
    let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [] in
    Mutex.unlock table_mutex;
    List.sort (fun (a, _) (b, _) -> String.compare a b) all

  let to_table () =
    let buf = Buffer.create 512 in
    List.iter
      (fun (name, m) ->
        match m with
        | C c ->
          if value c <> 0 then Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" name (value c))
        | G g ->
          if not (Float.equal (gauge_value g) 0.) then
            Buffer.add_string buf (Printf.sprintf "  %-40s %.3f\n" name (gauge_value g))
        | H h ->
          if histogram_count h <> 0 then
            Buffer.add_string buf
              (Printf.sprintf "  %-40s count=%d sum=%.3f mean=%.3f\n" name
                 (histogram_count h) (histogram_sum h)
                 (histogram_sum h /. float_of_int (histogram_count h))))
      (sorted_metrics ());
    if Buffer.length buf = 0 then "  (no metrics recorded)\n" else Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Levels                                                              *)
(* ------------------------------------------------------------------ *)

(* A level lives with its owner (the GC, the default pool, the live
   mixnet simulator), which registers a source: a named closure
   returning [(gauge_name, value)] pairs.  Each exporter reads every
   source into its gauge right before it renders, so a level is current
   whenever it is exported and instrumented code never pays for one.
   The write is unguarded: an export is an explicit request, so a level
   reads right whether or not tracing is on. *)
module Sampler = struct
  let sources : (string * (unit -> (string * float) list)) list ref = ref []
  let sources_mu = Mutex.create ()

  let register_source ~name f =
    Mutex.lock sources_mu;
    sources := (name, f) :: List.filter (fun (n, _) -> not (String.equal n name)) !sources;
    Mutex.unlock sources_mu

  let source_names () =
    Mutex.lock sources_mu;
    let names = List.map fst !sources in
    Mutex.unlock sources_mu;
    List.sort String.compare names

  let read_levels () =
    Mutex.lock sources_mu;
    let srcs = !sources in
    Mutex.unlock sources_mu;
    List.iter
      (fun (_, f) ->
        (* A failing source must never take the export down: telemetry
           is strictly best-effort. *)
        match f () with
        | pairs -> List.iter (fun (n, v) -> Atomic.set (Metrics.gauge n).Metrics.g v) pairs
        | exception _ -> ())
      srcs

  let () =
    register_source ~name:"gc" (fun () ->
        let s = Gc.quick_stat () in
        [
          (Names.gc_top_heap_words, float_of_int s.Gc.top_heap_words);
          (Names.gc_heap_words, float_of_int s.Gc.heap_words);
          (Names.gc_minor_collections, float_of_int s.Gc.minor_collections);
          (Names.gc_major_collections, float_of_int s.Gc.major_collections);
          (Names.gc_promoted_words, s.Gc.promoted_words);
        ])
end

(* ------------------------------------------------------------------ *)
(* Reset / scoping                                                     *)
(* ------------------------------------------------------------------ *)

(* Clear every recorded span and metric value (registrations
   survive).  Must only be called while no instrumented parallel work
   is in flight. *)
let reset () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun b ->
      b.items <- [||];
      b.len <- 0;
      b.depth <- 0;
      b.seq <- 0)
    bufs;
  Metrics.reset_values ();
  Atomic.set epoch (now ())

let with_enabled f =
  let was = Atomic.get enabled_flag in
  enable ();
  Fun.protect ~finally:(fun () -> if not was then disable ()) f

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let duration_s sp = if Float.is_nan sp.sp_end then 0. else Float.max 0. (sp.sp_end -. sp.sp_start)

(* Chrome trace_event JSON, loadable in about://tracing or Perfetto:
   one complete ("X") event per span, ts/dur in microseconds, tid = the
   recording domain. *)
let span_event sp =
  Json.Obj
    [
      ("name", Json.Str sp.sp_name);
      ("cat", Json.Str "mycelium");
      ("ph", Json.Str "X");
      ("ts", Json.Num (sp.sp_start *. 1e6));
      ("dur", Json.Num (duration_s sp *. 1e6));
      ("pid", Json.Int 0);
      ("tid", Json.Int sp.sp_dom);
      ("args", Json.Obj sp.sp_attrs);
    ]

(* Streamed writer: one event is rendered at a time through a reused
   scratch buffer, so a 10^6-device trace never materializes as one
   string.  The string API below is a thin wrapper over the same
   stream. *)
let chrome_trace_stream emit =
  emit "{\"traceEvents\":[";
  let scratch = Buffer.create 256 in
  List.iteri
    (fun i sp ->
      if i > 0 then emit ",";
      Buffer.clear scratch;
      Json.to_buf scratch (span_event sp);
      emit (Buffer.contents scratch))
    (all_spans ());
  emit "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"mycelium-obs\"}}"

let chrome_trace_to_channel oc = chrome_trace_stream (output_string oc)

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> chrome_trace_to_channel oc)

let metrics_table () =
  Sampler.read_levels ();
  Metrics.to_table ()

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* One snapshot in the text exposition format: every metric, levels
   included, as its own family (dots mangled to underscores under a
   [mycelium_] prefix, histograms with cumulative [le] buckets). *)
let prometheus_name name =
  let b = Bytes.of_string ("mycelium_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let prometheus_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prometheus_stream emit =
  Sampler.read_levels ();
  let line fmt = Printf.ksprintf (fun s -> emit s; emit "\n") fmt in
  List.iter
    (fun (name, m) ->
      let p = prometheus_name name in
      match m with
      | Metrics.C c ->
        line "# TYPE %s counter" p;
        line "%s %d" p (Metrics.value c)
      | Metrics.G g ->
        line "# TYPE %s gauge" p;
        line "%s %s" p (prometheus_num (Metrics.gauge_value g))
      | Metrics.H h ->
        line "# TYPE %s histogram" p;
        let counts = Metrics.histogram_counts h in
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if i < Array.length counts - 1 then
              line "%s_bucket{le=\"%s\"} %d" p
                (prometheus_num h.Metrics.bounds.(i))
                !cum)
          counts;
        line "%s_bucket{le=\"+Inf\"} %d" p !cum;
        line "%s_sum %s" p (prometheus_num (Metrics.histogram_sum h));
        line "%s_count %d" p !cum)
    (Metrics.sorted_metrics ())

let prometheus_to_channel oc = prometheus_stream (output_string oc)

let write_prometheus path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> prometheus_to_channel oc)

(* ------------------------------------------------------------------ *)
(* Audit ledger                                                        *)
(* ------------------------------------------------------------------ *)

(* Append-only JSONL: one self-contained record per runtime query,
   flushed per line so a crash loses at most the in-flight record.  The
   reading side (the [mycelium audit] verb and tests) parses and
   summarizes cumulative per-user budget spend. *)
module Ledger = struct
  type t = { l_path : string; oc : out_channel; mu : Mutex.t }

  let open_ path =
    {
      l_path = path;
      oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path;
      mu = Mutex.create ();
    }

  let append t j =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        Json.to_channel t.oc j;
        output_char t.oc '\n';
        flush t.oc)

  let close t = close_out t.oc

  let schema = "mycelium-ledger/1"

  let num_of = function Json.Num f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

  (* [summarize] trusts what it sums: a row must be one of ours, and a
     charged row must carry the positive, finite epsilon it charged. *)
  let check_row j =
    match Json.member "schema" j with
    | Some (Json.Str s) when String.equal s schema -> (
      match Json.member "charged" j with
      | Some (Json.Bool true) -> (
        match Option.bind (Json.member "epsilon" j) num_of with
        | Some e when Float.is_finite e && e > 0. -> Ok j
        | Some _ | None -> Error "charged row needs a finite epsilon > 0")
      | Some _ | None -> Ok j)
    | Some _ | None -> Error ("not a " ^ schema ^ " row")

  let read path =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | line ->
              if String.equal (String.trim line) "" then go (lineno + 1) acc
              else begin
                match Result.bind (Json.parse line) check_row with
                | Ok j -> go (lineno + 1) (j :: acc)
                | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
              end
          in
          go 1 [])

  type summary = {
    records : int;
    ok : int;
    rejected : int;
    errored : int;
    epsilon_spent : float;  (* sum of charged per-query epsilons *)
    uncharged : int;  (* infinite-epsilon (uncharged) queries *)
    by_name : (string * int * float) list;  (* query name, runs, epsilon *)
    stage_s : (string * float) list;  (* stage name, summed seconds *)
    budget_total : float option;
    budget_remaining : float option;
  }

  let summarize entries =
    let records = List.length entries in
    let ok = ref 0 and rejected = ref 0 and errored = ref 0 in
    let spent = ref 0. in
    let uncharged = ref 0 in
    let by_name : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
    let name_order = ref [] in
    let stage_s : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let stage_order = ref [] in
    let budget_total = ref None and budget_remaining = ref None in
    List.iter
      (fun e ->
        (match Json.member "status" e with
        | Some (Json.Str "ok") -> incr ok
        | Some (Json.Str "rejected") -> incr rejected
        | Some _ | None -> incr errored);
        let charged =
          match Json.member "charged" e with Some (Json.Bool b) -> b | _ -> false
        in
        let eps =
          match Option.bind (Json.member "epsilon" e) num_of with
          | Some f -> f
          | None -> 0.
        in
        if charged then spent := !spent +. eps
        else if
          match Json.member "status" e with Some (Json.Str "ok") -> true | _ -> false
        then incr uncharged;
        (match Json.member "name" e with
        | Some (Json.Str name) ->
          let n, s =
            match Hashtbl.find_opt by_name name with Some p -> p | None -> (0, 0.)
          in
          if n = 0 then name_order := name :: !name_order;
          Hashtbl.replace by_name name (n + 1, s +. (if charged then eps else 0.))
        | Some _ | None -> ());
        (match Json.member "stages" e with
        | Some (Json.Obj kvs) ->
          List.iter
            (fun (stage, v) ->
              match (num_of v, Hashtbl.find_opt stage_s stage) with
              | Some dt, Some sum -> Hashtbl.replace stage_s stage (sum +. dt)
              | Some dt, None ->
                stage_order := stage :: !stage_order;
                Hashtbl.replace stage_s stage dt
              | None, _ -> ())
            kvs
        | Some _ | None -> ());
        (match Option.bind (Json.member "budget_total" e) num_of with
        | Some f -> budget_total := Some f
        | None -> ());
        match Option.bind (Json.member "budget_remaining" e) num_of with
        | Some f -> budget_remaining := Some f
        | None -> ())
      entries;
    {
      records;
      ok = !ok;
      rejected = !rejected;
      errored = !errored;
      epsilon_spent = !spent;
      uncharged = !uncharged;
      by_name =
        List.rev_map
          (fun name ->
            let n, s = Hashtbl.find by_name name in
            (name, n, s))
          !name_order;
      stage_s = List.rev_map (fun stage -> (stage, Hashtbl.find stage_s stage)) !stage_order;
      budget_total = !budget_total;
      budget_remaining = !budget_remaining;
    }
end
