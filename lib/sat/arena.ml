module Cref = struct
  type t = int

  let undef = -1
end

let header_words = 2

(* Header word 0 layout, low bits first: learnt, dead, relocated, then
   the size. Word 1 holds the activity (or the forward Cref once the
   relocated bit is set). *)
let learnt_bit = 1
let dead_bit = 2
let reloc_bit = 4
let size_shift = 3

type t = {
  mutable data : int array;
  mutable len : int;
  mutable wasted : int;
}

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 16) 0; len = 0; wasted = 0 }

let len t = t.len
let wasted t = t.wasted
let live_words t = t.len - t.wasted
let should_gc t = 5 * t.wasted > t.len

let resize t cap =
  let data' = Array.make cap 0 in
  Array.blit t.data 0 data' 0 t.len;
  t.data <- data'

let ensure t n =
  if t.len + n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while t.len + n > !cap do
      cap := 2 * !cap
    done;
    resize t !cap
  end

let reserve t n = if t.len + n > Array.length t.data then resize t (t.len + n)

(* Activities are non-negative floats whose low-order mantissa bit is
   irrelevant (they only rank clauses), so they fit a 63-bit immediate
   by dropping that bit. *)
let bits_of_act a = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 1)
let act_of_bits i = Int64.float_of_bits (Int64.shift_left (Int64.of_int i) 1)

let alloc t ~learnt lits size =
  if size < 2 then invalid_arg "Arena.alloc: clause needs at least 2 literals";
  ensure t (header_words + size);
  let cr = t.len in
  t.data.(cr) <- (size lsl size_shift) lor (if learnt then learnt_bit else 0);
  t.data.(cr + 1) <- bits_of_act 0.0;
  Array.blit lits 0 t.data (cr + header_words) size;
  t.len <- t.len + header_words + size;
  cr

let size t cr = t.data.(cr) lsr size_shift
let learnt t cr = t.data.(cr) land learnt_bit <> 0
let dead t cr = t.data.(cr) land dead_bit <> 0
let relocated t cr = t.data.(cr) land reloc_bit <> 0

let lit t cr i = t.data.(cr + header_words + i)
let lits t cr = Array.sub t.data (cr + header_words) (size t cr)

let activity t cr = act_of_bits t.data.(cr + 1)
let set_activity t cr a = t.data.(cr + 1) <- bits_of_act a

let free t cr =
  if not (dead t cr) then begin
    t.data.(cr) <- t.data.(cr) lor dead_bit;
    t.wasted <- t.wasted + header_words + size t cr
  end

let reloc ~from ~into cr =
  if relocated from cr then from.data.(cr + 1)
  else begin
    let n = header_words + size from cr in
    ensure into n;
    let cr' = into.len in
    Array.blit from.data cr into.data cr' n;
    into.len <- into.len + n;
    from.data.(cr) <- from.data.(cr) lor reloc_bit;
    from.data.(cr + 1) <- cr';
    cr'
  end

let iter_live f t =
  let i = ref 0 in
  while !i < t.len do
    let cr = !i in
    i := !i + header_words + size t cr;
    if not (dead t cr) then f cr
  done

let raw t = t.data
let raw_size data cr = Array.unsafe_get data cr lsr size_shift
