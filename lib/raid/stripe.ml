type classification = {
  full_stripes : int;
  partial_stripes : int;
  blocks_in_full : int;
  blocks_in_partial : int;
  parity_writes : int;
  extra_reads : int;
}

let fullness_ratio c =
  let total = c.blocks_in_full + c.blocks_in_partial in
  if total = 0 then 0.0 else float_of_int c.blocks_in_full /. float_of_int total

let total_device_writes _geom c = c.blocks_in_full + c.blocks_in_partial + c.parity_writes

let pp fmt c =
  Format.fprintf fmt "full=%d partial=%d (blocks %d/%d) parity_w=%d extra_r=%d"
    c.full_stripes c.partial_stripes c.blocks_in_full c.blocks_in_partial c.parity_writes
    c.extra_reads
