type t = {
  id : int;
  level : int;                        (* terminals: max_int *)
  lo : t;
  hi : t;
  man : man;
}

and man = {
  w : int;
  unique : (int * int * int, t) Hashtbl.t;
  mutable next_id : int;
  mutable zero_n : t;
  mutable one_n : t;
  cache_paths : (int, float) Hashtbl.t;
}

let terminal_level = max_int

(* The tables start at a few buckets per level and grow with the graph,
   so a small search does not pay for a large one's tables. *)
let new_man ~width =
  if width < 0 then invalid_arg "Solution_graph.new_man";
  let rec man =
    {
      w = width;
      unique = Hashtbl.create (4 * width);
      next_id = 2;
      zero_n = zero;
      one_n = one;
      cache_paths = Hashtbl.create width;
    }
  and zero = { id = 0; level = terminal_level; lo = zero; hi = zero; man }
  and one = { id = 1; level = terminal_level; lo = one; hi = one; man } in
  man

let zero m = m.zero_n
let one m = m.one_n
let is_zero f = f.id = 0
let is_one f = f.id = 1
let is_terminal f = f.id < 2
let equal a b = a == b

let mk m ~level ~lo ~hi =
  if level < 0 || level >= m.w then invalid_arg "Solution_graph.mk: bad level";
  if lo.man != m || hi.man != m then
    invalid_arg "Solution_graph.mk: child from another manager";
  if lo == hi then lo
  else begin
    let key = (level, lo.id, hi.id) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
      let n = { id = m.next_id; level; lo; hi; man = m } in
      m.next_id <- m.next_id + 1;
      Hashtbl.add m.unique key n;
      n
  end

let size f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      if not (is_terminal f) then begin
        go f.lo;
        go f.hi
      end
    end
  in
  go f;
  Hashtbl.length seen

let count_models f =
  let m = f.man in
  let cache = Hashtbl.create 64 in
  let level_of f = if is_terminal f then m.w else f.level in
  let rec go f =
    if is_zero f then 0.0
    else if is_one f then 1.0
    else begin
      match Hashtbl.find_opt cache f.id with
      | Some c -> c
      | None ->
        let branch child =
          go child *. (2.0 ** float_of_int (level_of child - f.level - 1))
        in
        let c = branch f.lo +. branch f.hi in
        Hashtbl.add cache f.id c;
        c
    end
  in
  go f *. (2.0 ** float_of_int (level_of f))

let count_paths f =
  (* Cached in the manager: nodes are immutable and hash-consed, so the
     count per node never changes. This keeps repeated calls over a
     growing graph (the SDS cube-limit check) amortized O(new nodes). *)
  let cache = f.man.cache_paths in
  let rec go f =
    if is_zero f then 0.0
    else if is_one f then 1.0
    else begin
      match Hashtbl.find_opt cache f.id with
      | Some c -> c
      | None ->
        let c = go f.lo +. go f.hi in
        Hashtbl.add cache f.id c;
        c
    end
  in
  go f

let count_models_paths f =
  (* iter_cubes visits each 1-path once and paths are disjoint *)
  let total = ref 0.0 in
  let m = f.man in
  let rec go f depth =
    if is_one f then total := !total +. (2.0 ** float_of_int (m.w - depth))
    else if not (is_zero f) then begin
      go f.lo (depth + 1);
      go f.hi (depth + 1)
    end
  in
  go f 0;
  !total

let iter_cubes f k =
  let m = f.man in
  let acc = Bytes.make (max m.w 1) '-' in
  let rec go f =
    if is_one f then k (Cube.of_string (Bytes.sub_string acc 0 m.w))
    else if not (is_zero f) then begin
      Bytes.set acc f.level '0';
      go f.lo;
      Bytes.set acc f.level '1';
      go f.hi;
      Bytes.set acc f.level '-'
    end
  in
  go f

let cubes f =
  let acc = ref [] in
  iter_cubes f (fun c -> acc := c :: !acc);
  List.rev !acc

let to_bdd bman vars f =
  if Array.length vars <> f.man.w then
    invalid_arg "Solution_graph.to_bdd: vars length mismatch";
  let cache = Hashtbl.create 256 in
  let module B = Ps_bdd.Bdd in
  let rec go f =
    if is_zero f then B.zero bman
    else if is_one f then B.one bman
    else begin
      match Hashtbl.find_opt cache f.id with
      | Some r -> r
      | None ->
        let v = B.var bman vars.(f.level) in
        let r = B.ite v (go f.hi) (go f.lo) in
        Hashtbl.add cache f.id r;
        r
    end
  in
  go f
