type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy () = { data = [||]; len = 0; dummy }

let make ~dummy n x =
  if n < 0 then invalid_arg "Vec.make";
  { data = Array.make (max n 1) x; len = n; dummy }

let length v = v.len
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' = max n (max 8 (2 * cap)) in
    let data' = Array.make cap' v.dummy in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let push v x =
  ensure_capacity v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  let i = v.len in
  v.len <- v.len + 1;
  i

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = Array.unsafe_get v.data v.len in
  Array.unsafe_set v.data v.len v.dummy;
  x

let last v =
  if v.len = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.len - 1)

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get v i :: acc) in
  go (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len
let unsafe_data v = v.data

let of_list ~dummy xs =
  let v = create ~dummy () in
  List.iter (fun x -> ignore (push v x)) xs;
  v

let copy v = { v with data = Array.copy v.data }

let blit_into src dst =
  dst.len <- 0;
  ensure_capacity dst src.len;
  Array.blit src.data 0 dst.data 0 src.len;
  dst.len <- src.len

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len
