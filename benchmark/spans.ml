(* The benchmark's own spans around its calls into public layer
   functions.  A layer's self time is its span's duration minus the
   durations of the layer spans nested directly inside it (a
   contribution build inside a mixnet round's payload callback, say),
   so the self times of one replay add up to the replay's wall time. *)

type layer = { mutable self_s : float; mutable calls : int }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

(* Summed duration of the finished direct children of the innermost
   open span; at top level, of every finished top-level span. *)
let children_s = ref 0.

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { self_s = 0.; calls = 0 } in
    Hashtbl.replace layers name l;
    l

let span name f =
  let outer = !children_s in
  children_s := 0.;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let l = layer name in
  l.self_s <- l.self_s +. dt -. !children_s;
  l.calls <- l.calls + 1;
  children_s := outer +. dt;
  r

let self_s name = match Hashtbl.find_opt layers name with Some l -> l.self_s | None -> 0.
let calls name = match Hashtbl.find_opt layers name with Some l -> l.calls | None -> 0

(* Wall time of every top-level span since the last [reset]. *)
let total_s () = !children_s

let reset () =
  Hashtbl.reset layers;
  children_s := 0.
