module B = Ps_bdd.Bdd

type man = B.man
type t = B.t

let new_man ~width = B.new_man ~nvars:width
let zero = B.zero
let one = B.one
let is_zero = B.is_zero
let is_one = B.is_one
let equal = B.equal
let mk = B.mk
let size = B.size
let width f = B.nvars (B.man_of f)
let count_models f = B.count_models ~nvars:(width f) f
let cubes f = Cube_set.of_bdd f ~width:(width f)

let count_paths memo f =
  let rec go f =
    if B.is_zero f then 0.0
    else if B.is_one f then 1.0
    else begin
      match Hashtbl.find_opt memo (B.id f) with
      | Some c -> c
      | None ->
        let c = go (B.low f) +. go (B.high f) in
        Hashtbl.add memo (B.id f) c;
        c
    end
  in
  go f

(* Each 1-path is one disjoint cube, so the minterms add up. *)
let count_models_paths f =
  let w = width f in
  let total = ref 0.0 in
  let rec go f depth =
    if B.is_one f then total := !total +. (2.0 ** float_of_int (w - depth))
    else if not (B.is_zero f) then begin
      go (B.low f) (depth + 1);
      go (B.high f) (depth + 1)
    end
  in
  go f 0;
  !total

let to_bdd bman vars f =
  if Array.length vars <> width f then
    invalid_arg "Solution_graph.to_bdd: vars length mismatch";
  B.copy ~into:bman ~vars f
