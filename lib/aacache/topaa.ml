open Wafl_util
module Pagestore = Wafl_bitmap.Pagestore

type error = Bad_magic | Bad_version | Bad_checksum | Bad_layout

let pp_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "bad magic"
  | Bad_version -> Format.pp_print_string fmt "bad version"
  | Bad_checksum -> Format.pp_print_string fmt "bad checksum"
  | Bad_layout -> Format.pp_print_string fmt "bad layout"

let block_size = 4096
let version = 1

let magic_raid_aware = 0x54414152l (* "RAAT" *)
let magic_histogram = 0x54414148l (* "HAAT" *)
let magic_list = 0x5441414Cl (* "LAAT" *)

(* Common layout: [magic u32][version u16][count u16][payload...][crc u32 at
   block end]; the CRC covers everything before it. *)
let header_bytes = 8
let crc_bytes = 4

let new_block magic count =
  let b = Bytes.make block_size '\000' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_uint16_le b 4 version;
  Bytes.set_uint16_le b 6 count;
  b

(* Blocks are staged in [Bytes] while being (de)serialized, but live as
   {!Pagestore} pages — the same backend as the bitmaps they seed, so a
   bigarray-backed system keeps its TopAA state off-heap too. *)
let seal ?backend b =
  let crc = Checksum.crc32 b ~pos:0 ~len:(block_size - crc_bytes) in
  Bytes.set_int32_le b (block_size - crc_bytes) crc;
  Pagestore.of_bytes ?backend ~mapped:true b

let open_block magic page =
  if Pagestore.length_bytes page <> block_size then Error Bad_layout
  else begin
  let b = Pagestore.to_bytes page in
  if Bytes.get_int32_le b 0 <> magic then Error Bad_magic
  else if Bytes.get_uint16_le b 4 <> version then Error Bad_version
  else begin
    let stored = Bytes.get_int32_le b (block_size - crc_bytes) in
    let computed = Checksum.crc32 b ~pos:0 ~len:(block_size - crc_bytes) in
    if stored <> computed then Error Bad_checksum
    else Ok (Bytes.get_uint16_le b 6, b)
  end
  end

let raid_aware_capacity = (block_size - header_bytes - crc_bytes) / 8

let save_raid_aware ?backend heap =
  let entries = Max_heap.top_k heap raid_aware_capacity in
  let b = new_block magic_raid_aware (List.length entries) in
  List.iteri
    (fun i (aa, score) ->
      let off = header_bytes + (i * 8) in
      Bytes.set_int32_le b off (Int32.of_int aa);
      Bytes.set_int32_le b (off + 4) (Int32.of_int score))
    entries;
  seal ?backend b

let load_raid_aware page =
  match open_block magic_raid_aware page with
  | Error _ as e -> e
  | Ok (count, b) ->
    if count > raid_aware_capacity then Error Bad_layout
    else begin
      let entries =
        List.init count (fun i ->
            let off = header_bytes + (i * 8) in
            ( Int32.to_int (Bytes.get_int32_le b off),
              Int32.to_int (Bytes.get_int32_le b (off + 4)) ))
      in
      Ok entries
    end

type hbps_seed = {
  bin_width : int;
  max_score : int;
  bin_counts : int array;
  entries : (int * int) list;
}

(* Histogram page payload: [bin_width u32][max_score u32][bins u16] then per
   bin [count u32][seg_len u16]. *)
let save_hbps ?backend hbps =
  let bins = Hbps.bins hbps in
  let histogram = new_block magic_histogram bins in
  Bytes.set_int32_le histogram header_bytes (Int32.of_int (Hbps.bin_width hbps));
  Bytes.set_int32_le histogram (header_bytes + 4)
    (Int32.of_int (Hbps.bin_width hbps * bins));
  let per_bin_off b = header_bytes + 8 + (b * 6) in
  let listed = Hbps.to_list hbps in
  let seg_counts = Array.make bins 0 in
  List.iter
    (fun (_aa, score) ->
      let b = score / Hbps.bin_width hbps in
      let b = min b (bins - 1) in
      seg_counts.(b) <- seg_counts.(b) + 1)
    listed;
  for b = 0 to bins - 1 do
    let off = per_bin_off b in
    Bytes.set_int32_le histogram off (Int32.of_int (Hbps.histogram_count hbps ~bin:b));
    Bytes.set_uint16_le histogram (off + 4) seg_counts.(b)
  done;
  let list_page = new_block magic_list (Hbps.count hbps) in
  List.iteri
    (fun i (aa, _score) ->
      Bytes.set_int32_le list_page (header_bytes + (i * 4)) (Int32.of_int aa))
    listed;
  (seal ?backend histogram, seal ?backend list_page)

let load_hbps (histogram_page, list_page) =
  match open_block magic_histogram histogram_page with
  | Error _ as e -> e
  | Ok (bins, histogram) -> (
    if header_bytes + 8 + (bins * 6) > block_size - crc_bytes then Error Bad_layout
    else begin
      let bin_width = Int32.to_int (Bytes.get_int32_le histogram header_bytes) in
      let max_score = Int32.to_int (Bytes.get_int32_le histogram (header_bytes + 4)) in
      let per_bin_off b = header_bytes + 8 + (b * 6) in
      let bin_counts =
        Array.init bins (fun b -> Int32.to_int (Bytes.get_int32_le histogram (per_bin_off b)))
      in
      let seg_counts =
        Array.init bins (fun b -> Bytes.get_uint16_le histogram (per_bin_off b + 4))
      in
      match open_block magic_list list_page with
      | Error _ as e -> e
      | Ok (count, list_page) ->
        if
          count <> Array.fold_left ( + ) 0 seg_counts
          || header_bytes + (count * 4) > block_size - crc_bytes
        then Error Bad_layout
        else begin
          let ids =
            Array.init count (fun i ->
                Int32.to_int (Bytes.get_int32_le list_page (header_bytes + (i * 4))))
          in
          (* Entries are stored highest bin first; recover each id's bin
             from the segment counts. *)
          let entries = ref [] in
          let idx = ref 0 in
          for b = bins - 1 downto 0 do
            for _ = 1 to seg_counts.(b) do
              entries := (ids.(!idx), b) :: !entries;
              incr idx
            done
          done;
          Ok { bin_width; max_score; bin_counts; entries = List.rev !entries }
        end
    end)

let seed_scores seed =
  List.map (fun (aa, bin) -> (aa, bin * seed.bin_width)) seed.entries
