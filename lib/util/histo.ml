type t = {
  max_value : int;
  bin_width : int;
  counts : int array;
  mutable total : int;
}

let create ~max_value ~bin_width =
  assert (max_value > 0 && bin_width > 0);
  let bins = Bitops.ceil_div (max_value + 1) bin_width in
  { max_value; bin_width; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts

let bin_of_value t v =
  let v = if v < 0 then 0 else if v > t.max_value then t.max_value else v in
  v / t.bin_width

let bin_range t i =
  assert (i >= 0 && i < bins t);
  let lo = i * t.bin_width in
  let hi = min t.max_value (lo + t.bin_width - 1) in
  (lo, hi)

let add t v =
  let i = bin_of_value t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let remove t v =
  let i = bin_of_value t v in
  assert (t.counts.(i) > 0);
  t.counts.(i) <- t.counts.(i) - 1;
  t.total <- t.total - 1

let move t ~from_value ~to_value =
  let i = bin_of_value t from_value and j = bin_of_value t to_value in
  if i <> j then begin
    assert (t.counts.(i) > 0);
    t.counts.(i) <- t.counts.(i) - 1;
    t.counts.(j) <- t.counts.(j) + 1
  end

let count t i =
  assert (i >= 0 && i < bins t);
  t.counts.(i)

let total t = t.total

let highest_nonempty t =
  let rec go i = if i < 0 then None else if t.counts.(i) > 0 then Some i else go (i - 1) in
  go (bins t - 1)

let iter t f =
  for i = bins t - 1 downto 0 do
    f i t.counts.(i)
  done
