type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { data = [||]; size = 0; dummy }

let make n x ~dummy = { data = Array.make (max n 1) x; size = n; dummy }

let size v = v.size

let is_empty v = v.size = 0

let check v i =
  if i < 0 || i >= v.size then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (size %d)" i v.size)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' = max n (max 4 (2 * cap)) in
    let data' = Array.make cap' v.dummy in
    Array.blit v.data 0 data' 0 v.size;
    v.data <- data'
  end

let push v x =
  ensure_capacity v (v.size + 1);
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop: empty";
  v.size <- v.size - 1;
  let x = Array.unsafe_get v.data v.size in
  Array.unsafe_set v.data v.size v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last: empty";
  Array.unsafe_get v.data (v.size - 1)

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  for i = n to v.size - 1 do
    Array.unsafe_set v.data i v.dummy
  done;
  v.size <- n

let clear v = shrink v 0

let grow_to v n x =
  ensure_capacity v n;
  while v.size < n do
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1
  done

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let to_list v = List.init v.size (fun i -> Array.unsafe_get v.data i)

let to_array v = Array.sub v.data 0 v.size

let of_list xs ~dummy =
  let v = create ~dummy in
  List.iter (push v) xs;
  v

let copy v = { data = Array.copy v.data; size = v.size; dummy = v.dummy }
