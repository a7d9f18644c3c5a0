(* The --check gate: every gated cell of a bench run against the same
   cell of the committed baseline (bench/baseline.json, a `--json`
   document recorded on the gating host).

   A cell is a named figure of one section ("ringops/ntt_forward_8192_ns").
   Times and heap sizes may grow to 1.5x their baseline value, ratios
   and rates may fall to 1/1.5 of it, and counts must match exactly.  A
   cell can also carry a fixed threshold, kept where it is stricter
   than the 1.5x bound. *)

module Json = Mycelium_obs.Obs.Json

type better = Lower | Higher | Exact

type cell = { name : string; value : float; better : better; limit : float option }

let slack = 1.5

let bound c ~base =
  match (c.better, c.limit) with
  | Exact, _ -> base
  | Lower, limit -> Float.min (base *. slack) (Option.value limit ~default:Float.infinity)
  | Higher, limit -> Float.max (base /. slack) (Option.value limit ~default:Float.neg_infinity)

let section name =
  match String.index_opt name '/' with Some i -> String.sub name 0 i | None -> name

(* The "cells" object of a bench --json document. *)
let baseline_cells doc =
  match Json.member "cells" doc with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Num f -> Some (k, f)
        | Json.Int i -> Some (k, float_of_int i)
        | _ -> None)
      kvs
  | _ -> []

(* One verdict per measured cell, then one failure per baseline cell of
   a [selected] section that the run did not measure.  Every message
   names the cell, both values and the bound. *)
let check ~baseline ~selected cells =
  let verdict c =
    match List.assoc_opt c.name baseline with
    | None ->
      Error (Printf.sprintf "%s = %g has no baseline value (re-record bench/baseline.json)" c.name c.value)
    | Some base ->
      let b = bound c ~base in
      let ok, rel =
        match c.better with
        | Lower -> (c.value <= b, "at most")
        | Higher -> (c.value >= b, "at least")
        | Exact -> (Float.equal c.value b, "exactly")
      in
      let msg = Printf.sprintf "%s = %g, baseline %g, bound %s %g" c.name c.value base rel b in
      if ok then Ok msg else Error msg
  in
  let unmeasured =
    List.filter_map
      (fun (name, base) ->
        if selected (section name) && not (List.exists (fun c -> String.equal c.name name) cells)
        then Some (Error (Printf.sprintf "%s: baseline %g, but this run did not measure it" name base))
        else None)
      baseline
  in
  List.map verdict cells @ unmeasured
