(* Monomorphic and allocation-free: the heap and position tables are
   plain [int array]s, and a comparison reads the score array directly,
   so no float is boxed (a closure returning a float boxes it without
   flambda). Percolation moves a hole instead of swapping, but makes the
   same comparisons in the same order as a swap-based MiniSat heap:
   strict [>] and the left child before the right, so ties pop in the
   same order. *)
type t = {
  mutable heap : int array;    (* heap.(i) = element at heap position i *)
  mutable n : int;             (* heap.(0 .. n-1) are live *)
  mutable pos : int array;     (* pos.(x) = position of x in heap, -1 if absent *)
  score : float array ref;
}

let create ~score = { heap = [||]; n = 0; pos = [||]; score }

let size h = h.n

let is_empty h = h.n = 0

let mem h x = x < Array.length h.pos && h.pos.(x) >= 0

(* Move the element [x] up from the hole at [i] to where it belongs. *)
let percolate_up h i x =
  let heap = h.heap and pos = h.pos and score = !(h.score) in
  let sx = score.(x) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = heap.(parent) in
    if sx > score.(p) then begin
      heap.(!i) <- p;
      pos.(p) <- !i;
      i := parent
    end
    else continue := false
  done;
  heap.(!i) <- x;
  pos.(x) <- !i

(* Move the element [x] down from the hole at [i] to where it belongs. *)
let percolate_down h i x =
  let heap = h.heap and pos = h.pos and score = !(h.score) and n = h.n in
  let sx = score.(x) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if sx < score.(heap.(l)) then
          if r < n && score.(heap.(l)) < score.(heap.(r)) then r else l
        else if r < n && sx < score.(heap.(r)) then r
        else !i
      in
      if c = !i then continue := false
      else begin
        let y = heap.(c) in
        heap.(!i) <- y;
        pos.(y) <- !i;
        i := c
      end
    end
  done;
  heap.(!i) <- x;
  pos.(x) <- !i

let grow a n fill =
  let a' = Array.make (max n (max 16 (2 * Array.length a))) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let insert h x =
  if not (mem h x) then begin
    if x >= Array.length h.pos then h.pos <- grow h.pos (x + 1) (-1);
    if h.n >= Array.length h.heap then h.heap <- grow h.heap (h.n + 1) (-1);
    h.n <- h.n + 1;
    percolate_up h (h.n - 1) x
  end

let remove_max h =
  if h.n = 0 then raise Not_found;
  let top = h.heap.(0) in
  h.n <- h.n - 1;
  h.pos.(top) <- -1;
  if h.n > 0 then percolate_down h 0 h.heap.(h.n);
  top

let decrease h x = if mem h x then percolate_up h h.pos.(x) x

let clear h =
  for i = 0 to h.n - 1 do
    h.pos.(h.heap.(i)) <- -1
  done;
  h.n <- 0

let rebuild h xs =
  clear h;
  List.iter (insert h) xs
