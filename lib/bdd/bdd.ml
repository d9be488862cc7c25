(* Node ids stay far below 2^31 (see [mk]), so an ordered pair of ids
   packs into one int: the binary-operation caches need no key tuple. *)
let pair a b = (a lsl 31) lor b

module Itbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  id : int;
  level : int;                          (* terminals: max_int *)
  low : t;
  high : t;
  man : man;
}

and man = {
  nvars : int;
  mutable unique : t list array;        (* chains hashed on (level, low, high);
                                           a node is its own key *)
  mutable num_nodes : int;
  mutable next_id : int;
  mutable zero_n : t;
  mutable one_n : t;
  cache_not : t Itbl.t;
  cache_and : t Itbl.t;                 (* keyed by [pair] of operand ids *)
  cache_or : t Itbl.t;
  cache_xor : t Itbl.t;
  cache_ite : (int * int * int, t) Hashtbl.t;
}

let terminal_level = max_int

(* The tables start small and grow: a manager is also made per union
   count or comparison of a short cube list, where allocating large
   tables would cost more than the diagram. *)
let new_man ~nvars =
  if nvars < 0 then invalid_arg "Bdd.new_man: negative nvars";
  let rec man =
    {
      nvars;
      unique = Array.make 256 [];
      num_nodes = 0;
      next_id = 2;
      zero_n = zero;
      one_n = one;
      cache_not = Itbl.create 256;
      cache_and = Itbl.create 256;
      cache_or = Itbl.create 256;
      cache_xor = Itbl.create 256;
      cache_ite = Hashtbl.create 256;
    }
  and zero = { id = 0; level = terminal_level; low = zero; high = zero; man }
  and one = { id = 1; level = terminal_level; low = one; high = one; man } in
  man

let nvars m = m.nvars
let num_nodes m = m.num_nodes
let zero m = m.zero_n
let one m = m.one_n
let man_of f = f.man

let is_zero f = f.id = 0
let is_one f = f.id = 1
let is_terminal f = f.id < 2
let equal a b = a == b
let id f = f.id
let topvar f = if is_terminal f then None else Some f.level

let low f =
  if is_terminal f then invalid_arg "Bdd.low: terminal" else f.low

let high f =
  if is_terminal f then invalid_arg "Bdd.high: terminal" else f.high

let same_man a b =
  if a.man != b.man then invalid_arg "Bdd: mixing nodes from different managers"

let slot m level low high =
  ((((level * 0x9E3779B1) + low.id) * 0x85EBCA77) + high.id) land max_int
  mod Array.length m.unique

(* Double the unique table once it holds two nodes per chain. *)
let grow m =
  let old = m.unique in
  m.unique <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun n ->
         let i = slot m n.level n.low n.high in
         m.unique.(i) <- n :: m.unique.(i)))
    old

let mk m level low high =
  if low == high then low
  else begin
    let rec find = function
      | [] -> None
      | n :: rest ->
        if n.level = level && n.low == low && n.high == high then Some n
        else find rest
    in
    match find m.unique.(slot m level low high) with
    | Some n -> n
    | None ->
      (* 2^31 nodes would take well over 100 GB; [pair] relies on it. *)
      if m.next_id >= 1 lsl 31 then failwith "Bdd: node ids exhausted";
      let n = { id = m.next_id; level; low; high; man = m } in
      m.next_id <- m.next_id + 1;
      if m.num_nodes >= 2 * Array.length m.unique then grow m;
      let i = slot m level low high in
      m.unique.(i) <- n :: m.unique.(i);
      m.num_nodes <- m.num_nodes + 1;
      n
  end

let check_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd: variable out of range"

let var m v =
  check_var m v;
  mk m v m.zero_n m.one_n

let nvar m v =
  check_var m v;
  mk m v m.one_n m.zero_n

let rec bnot f =
  if is_zero f then f.man.one_n
  else if is_one f then f.man.zero_n
  else begin
    match Itbl.find_opt f.man.cache_not f.id with
    | Some r -> r
    | None ->
      let r = mk f.man f.level (bnot f.low) (bnot f.high) in
      Itbl.add f.man.cache_not f.id r;
      r
  end

(* Cofactor of [f] with respect to level [l]: ([f] with l:=0, [f] with l:=1). *)
let cofactor f l = if f.level = l then (f.low, f.high) else (f, f)

let rec band a b =
  same_man a b;
  if a == b then a
  else if is_zero a || is_zero b then a.man.zero_n
  else if is_one a then b
  else if is_one b then a
  else begin
    let key = if a.id < b.id then pair a.id b.id else pair b.id a.id in
    let m = a.man in
    match Itbl.find_opt m.cache_and key with
    | Some r -> r
    | None ->
      let l = min a.level b.level in
      let a0, a1 = cofactor a l and b0, b1 = cofactor b l in
      let r = mk m l (band a0 b0) (band a1 b1) in
      Itbl.add m.cache_and key r;
      r
  end

let rec bor a b =
  same_man a b;
  if a == b then a
  else if is_one a || is_one b then a.man.one_n
  else if is_zero a then b
  else if is_zero b then a
  else begin
    let key = if a.id < b.id then pair a.id b.id else pair b.id a.id in
    let m = a.man in
    match Itbl.find_opt m.cache_or key with
    | Some r -> r
    | None ->
      let l = min a.level b.level in
      let a0, a1 = cofactor a l and b0, b1 = cofactor b l in
      let r = mk m l (bor a0 b0) (bor a1 b1) in
      Itbl.add m.cache_or key r;
      r
  end

let rec bxor a b =
  same_man a b;
  if a == b then a.man.zero_n
  else if is_zero a then b
  else if is_zero b then a
  else if is_one a then bnot b
  else if is_one b then bnot a
  else begin
    let key = if a.id < b.id then pair a.id b.id else pair b.id a.id in
    let m = a.man in
    match Itbl.find_opt m.cache_xor key with
    | Some r -> r
    | None ->
      let l = min a.level b.level in
      let a0, a1 = cofactor a l and b0, b1 = cofactor b l in
      let r = mk m l (bxor a0 b0) (bxor a1 b1) in
      Itbl.add m.cache_xor key r;
      r
  end

let bnand a b = bnot (band a b)
let bnor a b = bnot (bor a b)
let bxnor a b = bnot (bxor a b)
let bimp a b = bor (bnot a) b

let rec ite f g h =
  same_man f g;
  same_man g h;
  let m = f.man in
  if is_one f then g
  else if is_zero f then h
  else if g == h then g
  else if is_one g && is_zero h then f
  else if is_zero g && is_one h then bnot f
  else begin
    let key = (f.id, g.id, h.id) in
    match Hashtbl.find_opt m.cache_ite key with
    | Some r -> r
    | None ->
      let l = min f.level (min g.level h.level) in
      let f0, f1 = cofactor f l
      and g0, g1 = cofactor g l
      and h0, h1 = cofactor h l in
      let r = mk m l (ite f0 g0 h0) (ite f1 g1 h1) in
      Hashtbl.add m.cache_ite key r;
      r
  end

(* Quantification. The memo key includes the number of remaining
   quantified variables because the same node can be reached with
   different suffixes of the variable list. *)
let quantify ~combine vars f =
  let vars = List.sort_uniq compare vars in
  List.iter (check_var f.man) vars;
  let cache : (int * int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go f vars =
    match vars with
    | [] -> f
    | v :: rest ->
      if is_terminal f then f
      else if f.level > v then go f rest
      else begin
        let key = (f.id, List.length vars) in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
          let r =
            if f.level = v then combine (go f.low rest) (go f.high rest)
            else mk f.man f.level (go f.low vars) (go f.high vars)
          in
          Hashtbl.add cache key r;
          r
      end
  in
  go f vars

let exists vars f = quantify ~combine:bor vars f
let forall vars f = quantify ~combine:band vars f

let and_exists vars f g =
  same_man f g;
  let m = f.man in
  let vars = List.sort_uniq compare vars in
  List.iter (check_var m) vars;
  let cache : (int * int * int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go f g vars =
    if is_zero f || is_zero g then m.zero_n
    else
      match vars with
      | [] -> band f g
      | v :: rest ->
        if is_one f && is_one g then m.one_n
        else begin
          let l = min f.level g.level in
          if l > v then go f g rest
          else begin
            let key = (f.id, g.id, List.length vars) in
            match Hashtbl.find_opt cache key with
            | Some r -> r
            | None ->
              let f0, f1 = cofactor f l and g0, g1 = cofactor g l in
              let r =
                if l = v then bor (go f0 g0 rest) (go f1 g1 rest)
                else mk m l (go f0 g0 vars) (go f1 g1 vars)
              in
              Hashtbl.add cache key r;
              r
          end
        end
  in
  go f g vars

let restrict f ~var ~value =
  check_var f.man var;
  let cache : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go f =
    if is_terminal f || f.level > var then f
    else if f.level = var then if value then f.high else f.low
    else begin
      match Hashtbl.find_opt cache f.id with
      | Some r -> r
      | None ->
        let r = mk f.man f.level (go f.low) (go f.high) in
        Hashtbl.add cache f.id r;
        r
    end
  in
  go f

let compose f subst =
  let m = f.man in
  if Array.length subst < m.nvars then
    invalid_arg "Bdd.compose: substitution array too short";
  Array.iter (fun g -> same_man f g) subst;
  let cache : (int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go f =
    if is_terminal f then f
    else begin
      match Hashtbl.find_opt cache f.id with
      | Some r -> r
      | None ->
        let r = ite subst.(f.level) (go f.high) (go f.low) in
        Hashtbl.add cache f.id r;
        r
    end
  in
  go f

(* Bottom-up from the deepest variable: each literal puts one node on top
   of the conjunction of the deeper ones, so no [band] is needed. Sorting
   merges repeated literals and puts a variable fixed both ways next to
   itself, which makes the cube empty. *)
let cube m lits =
  List.iter (fun (v, _) -> check_var m v) lits;
  let rec build prev acc = function
    | [] -> acc
    | (v, _) :: _ when v = prev -> m.zero_n
    | (v, value) :: rest ->
      build v (if value then mk m v m.zero_n acc else mk m v acc m.zero_n) rest
  in
  let deepest_first (a, x) (b, y) =
    if a <> b then Int.compare b a else Bool.compare x y
  in
  build (-1) m.one_n (List.sort_uniq deepest_first lits)

let size f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      if not (is_terminal f) then begin
        go f.low;
        go f.high
      end
    end
  in
  go f;
  Hashtbl.length seen

let support f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    if (not (is_terminal f)) && not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      Hashtbl.replace vars f.level ();
      go f.low;
      go f.high
    end
  in
  go f;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let count_models ~nvars f =
  if nvars < f.man.nvars then invalid_arg "Bdd.count_models: nvars too small";
  let cache : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let level_of f = if is_terminal f then nvars else f.level in
  (* [go f] counts assignments of variables [level_of f .. nvars-1]. *)
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
        let c = branch f.low +. branch f.high in
        Hashtbl.add cache f.id c;
        c
    end
  in
  go f *. (2.0 ** float_of_int (level_of f))

let iter_cubes f ~nvars k =
  if nvars < f.man.nvars then invalid_arg "Bdd.iter_cubes: nvars too small";
  let cube = Array.make (max nvars 1) None in
  let rec go f =
    if is_one f then k (Array.copy cube)
    else if not (is_zero f) then begin
      cube.(f.level) <- Some false;
      go f.low;
      cube.(f.level) <- Some true;
      go f.high;
      cube.(f.level) <- None
    end
  in
  go f

let eval f assignment =
  let rec go f =
    if is_one f then true
    else if is_zero f then false
    else if assignment.(f.level) then go f.high
    else go f.low
  in
  go f

let any_sat f =
  let rec go f acc =
    if is_one f then Some (List.rev acc)
    else if is_zero f then None
    else begin
      match go f.high ((f.level, true) :: acc) with
      | Some _ as r -> r
      | None -> go f.low ((f.level, false) :: acc)
    end
  in
  go f []

let of_cnf m clauses =
  List.fold_left
    (fun acc clause ->
      let c =
        List.fold_left
          (fun c (v, sign) -> bor c (if sign then var m v else nvar m v))
          m.zero_n clause
      in
      band acc c)
    m.one_n clauses

let pp ppf f =
  if is_zero f then Format.pp_print_string ppf "false"
  else if is_one f then Format.pp_print_string ppf "true"
  else
    Format.fprintf ppf "<bdd id=%d level=%d nodes=%d support=[%a]>" f.id f.level
      (size f)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      (support f)
