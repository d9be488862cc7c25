(* Subsumption removal via the shared ternary trie (see {!Cube_trie}):
   load every distinct cube, then keep exactly the cubes not strictly
   subsumed by another stored cube. This preserves the historical
   semantics of the pairwise O(n²) scan it replaced — dedupe first
   (identical cubes never protect each other), output in sorted order,
   and a cube survives iff no {e distinct} cube subsumes it (subsumption
   is transitive and antisymmetric on distinct cubes, so dropping
   non-maximal cubes in any order yields the same maximal set). *)
let reduce cubes =
  match List.sort_uniq Cube.compare cubes with
  | [] -> []
  | c0 :: _ as cubes ->
    let trie = Cube_trie.create (Cube.width c0) in
    List.iter (fun c -> ignore (Cube_trie.add trie c)) cubes;
    List.filter (fun c -> not (Cube_trie.subsumed ~strict:true trie c)) cubes

(* Two cubes merge when they agree everywhere except exactly one position
   where both are fixed with opposite values. *)
let try_merge a b =
  if Cube.width a <> Cube.width b then None
  else begin
    let diff = ref [] in
    let ok = ref true in
    for i = 0 to Cube.width a - 1 do
      let va = Cube.get a i and vb = Cube.get b i in
      if va <> vb then begin
        match (va, vb) with
        | Cube.True, Cube.False | Cube.False, Cube.True -> diff := i :: !diff
        | _ -> ok := false
      end
    done;
    match (!ok, !diff) with
    | true, [ i ] -> Some (Cube.set a i Cube.DontCare)
    | _ -> None
  end

let merge_pass cubes =
  let arr = Array.of_list cubes in
  let used = Array.make (Array.length arr) false in
  let out = ref [] in
  for i = 0 to Array.length arr - 1 do
    if not used.(i) then begin
      let merged = ref None in
      (try
         for j = i + 1 to Array.length arr - 1 do
           if not used.(j) then begin
             match try_merge arr.(i) arr.(j) with
             | Some m ->
               merged := Some m;
               used.(j) <- true;
               raise Exit
             | None -> ()
           end
         done
       with Exit -> ());
      match !merged with
      | Some m -> out := m :: !out
      | None -> out := arr.(i) :: !out
    end
  done;
  List.rev !out

let rec minimize cubes =
  let next = reduce (merge_pass cubes) in
  if List.length next = List.length cubes && List.sort_uniq Cube.compare next = List.sort_uniq Cube.compare cubes
  then next
  else minimize next

module B = Ps_bdd.Bdd

let to_bdd ?var_of_pos man cubes =
  let lits c =
    match var_of_pos with
    | None -> Cube.to_list c
    | Some vars -> List.map (fun (i, v) -> (vars.(i), v)) (Cube.to_list c)
  in
  List.fold_left (fun acc c -> B.bor acc (B.cube man (lits c))) (B.zero man) cubes

let of_bdd f ~width =
  let acc = ref [] in
  B.iter_cubes f ~nvars:width (fun path ->
      let cube =
        String.init width (fun i ->
            match path.(i) with Some true -> '1' | Some false -> '0' | None -> '-')
      in
      acc := Cube.of_string cube :: !acc);
  List.rev !acc

let union_count width cubes =
  B.count_models ~nvars:width (to_bdd (B.new_man ~nvars:width) cubes)

type count = { value : float; exact : bool }

(* Model counts are accumulated in IEEE doubles, whose integers are
   exact only up to 2^53: for width <= 53 every intermediate count is an
   integer <= 2^width <= 2^53 and every addition of two such integers
   with a representable sum is exact, so the result is the true count.
   Past width 53 intermediate sums can silently round (near-full covers
   like 2^60 - 1 are not representable), so the result is flagged
   inexact; and for very large widths 2^width overflows to [infinity],
   which is clamped to [Float.max_float] so callers never see an
   infinite "count". *)
let union_count_checked width cubes =
  let value = union_count width cubes in
  if width <= 53 then { value; exact = true }
  else if Float.is_integer value && value <> Float.infinity then
    { value; exact = false }
  else { value = Float.max_float; exact = false }

let equal_union width a b =
  let man = B.new_man ~nvars:width in
  B.equal (to_bdd man a) (to_bdd man b)
