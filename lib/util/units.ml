let pp_bytes fmt v =
  let abs = Float.abs v in
  if abs >= 1e12 then Format.fprintf fmt "%.1f TB" (v /. 1e12)
  else if abs >= 1e9 then Format.fprintf fmt "%.1f GB" (v /. 1e9)
  else if abs >= 1e6 then Format.fprintf fmt "%.1f MB" (v /. 1e6)
  else if abs >= 1e3 then Format.fprintf fmt "%.1f KB" (v /. 1e3)
  else Format.fprintf fmt "%.0f B" v

let bytes_to_string v = Format.asprintf "%a" pp_bytes v
