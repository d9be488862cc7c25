(* Tests for Ps_allsat: cube algebra, projections, the solution graph,
   justification lifting, the blocking enumerator and the success-driven
   searcher — all cross-checked against brute force and each other. *)

module A = Ps_allsat
module Cube = A.Cube
module Sg = A.Solution_graph
module N = Ps_circuit.Netlist
module Sim = Ps_circuit.Sim
module Ts = Ps_circuit.Tseitin
module Lit = Ps_sat.Lit
module Solver = Ps_sat.Solver
module B = Ps_bdd.Bdd
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Cube -------------------------------------------------------------- *)

let test_cube_basic () =
  let c = Cube.make 4 in
  check_int "all dc" 0 (Cube.num_fixed c);
  let c = Cube.set c 1 Cube.True in
  let c = Cube.set c 3 Cube.False in
  check_int "fixed" 2 (Cube.num_fixed c);
  check_int "free" 2 (Cube.num_free c);
  check_bool "get" true (Cube.get c 1 = Cube.True);
  check_bool "get dc" true (Cube.get c 0 = Cube.DontCare);
  Alcotest.(check string) "to_string" "-1-0" (Cube.to_string c);
  Alcotest.(check (float 0.0)) "minterms" 4.0 (Cube.minterm_count c);
  Alcotest.(check (list (pair int bool))) "to_list" [ (1, true); (3, false) ]
    (Cube.to_list c)

let test_cube_strings () =
  let c = Cube.of_string "1-0X" in
  Alcotest.(check string) "X normalized" "1-0-" (Cube.to_string c);
  (try
     ignore (Cube.of_string "12");
     Alcotest.fail "expected bad char failure"
   with Invalid_argument _ -> ());
  let bits = [| true; false; true |] in
  Alcotest.(check string) "of_assignment" "101" (Cube.to_string (Cube.of_assignment bits));
  Alcotest.(check string) "masked" "1-1"
    (Cube.to_string (Cube.of_masked_assignment bits [| true; false; true |]))

let test_cube_relations () =
  let a = Cube.of_string "1--" in
  let b = Cube.of_string "1-0" in
  check_bool "subsumes" true (Cube.subsumes a b);
  check_bool "not subsumed" false (Cube.subsumes b a);
  check_bool "intersects" true (Cube.intersects a b);
  check_bool "disjoint" false (Cube.intersects (Cube.of_string "1--") (Cube.of_string "0--"));
  check_bool "contains" true (Cube.contains b [| true; true; false |]);
  check_bool "not contains" false (Cube.contains b [| true; true; true |])

let cube_minterms_consistent =
  Helpers.qtest "iter_minterms enumerates exactly the contained points" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 6 in
      let c =
        Cube.of_string
          (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ]))
      in
      let count = ref 0 in
      let all_contained = ref true in
      Cube.iter_minterms c (fun bits ->
          incr count;
          if not (Cube.contains c bits) then all_contained := false);
      !all_contained && float_of_int !count = Cube.minterm_count c)

let cube_subsumption_semantics =
  Helpers.qtest "subsumes = containment of all minterms" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let rand () = Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ])) in
      let a = rand () and b = rand () in
      let semantic = ref true in
      Cube.iter_minterms b (fun bits -> if not (Cube.contains a bits) then semantic := false);
      Cube.subsumes a b = !semantic)

(* --- Project ------------------------------------------------------------ *)

let test_project () =
  let p = A.Project.make ~vars:[| 4; 7; 9 |] ~names:[| "a"; "b"; "c" |] in
  check_int "width" 3 (A.Project.width p);
  let c = Cube.of_string "1-0" in
  Alcotest.(check (list int)) "lits" [ Lit.pos 4; Lit.neg 9 ] (A.Project.lits_of_cube p c);
  Alcotest.(check (list int)) "blocking" [ Lit.neg 4; Lit.pos 9 ]
    (A.Project.blocking_clause p c);
  let model = Array.make 10 false in
  model.(7) <- true;
  Alcotest.(check string) "cube_of_model" "010"
    (Cube.to_string (A.Project.cube_of_model p model));
  (try
     ignore (A.Project.make ~vars:[| 1 |] ~names:[||]);
     Alcotest.fail "expected length mismatch"
   with Invalid_argument _ -> ())

(* --- Solution graph ------------------------------------------------------- *)

(* A random reduced ordered graph over [w] levels, built with [mk]: a
   skipped level is a don't-care, and hash-consing shares equal
   subgraphs. *)
let random_graph rng m w =
  let rec go level =
    if level = w then if R.bool rng then Sg.one m else Sg.zero m
    else if R.int rng 4 = 0 then go (level + 1)
    else begin
      let lo = go (level + 1) in
      let hi = go (level + 1) in
      Sg.mk m ~level ~lo ~hi
    end
  in
  go 0

let identity_bdd w g =
  Sg.to_bdd (B.new_man ~nvars:w) (Array.init w Fun.id) g

let rec pairwise_disjoint = function
  | [] -> true
  | c :: rest ->
    List.for_all (fun c' -> not (Cube.intersects c c')) rest
    && pairwise_disjoint rest

let random_cube rng w =
  Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ]))

let test_sgraph_basic () =
  let m = Sg.new_man ~width:3 in
  check_bool "zero" true (Sg.is_zero (Sg.zero m));
  check_bool "one" true (Sg.is_one (Sg.one m));
  let n = Sg.mk m ~level:1 ~lo:(Sg.zero m) ~hi:(Sg.one m) in
  check_bool "reduction" true (Sg.equal (Sg.mk m ~level:0 ~lo:n ~hi:n) n);
  check_bool "hash-consing" true
    (Sg.equal n (Sg.mk m ~level:1 ~lo:(Sg.zero m) ~hi:(Sg.one m)));
  Alcotest.(check (float 0.0)) "count" 4.0 (Sg.count_models n);
  Alcotest.(check (list string)) "cubes" [ "-1-" ]
    (List.map Cube.to_string (Sg.cubes n))

let sgraph_cubes_partition =
  Helpers.qtest "iter_cubes yields disjoint cover with exact count" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let g = random_graph rng (Sg.new_man ~width:w) w in
      let cubes = Sg.cubes g in
      let sum =
        List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 cubes
      in
      let f = identity_bdd w g in
      let covered = ref true in
      Helpers.iter_assignments w (fun bits ->
          if List.exists (fun c -> Cube.contains c bits) cubes <> B.eval f bits
          then covered := false);
      sum = Sg.count_models g && pairwise_disjoint cubes && !covered)

(* Injective maps of [w] positions onto BDD variables: the projection
   positions that the [Cone_first] and [Reverse] orders give a random
   sequential circuit with [w] latches. *)
let projection_maps rng w =
  let c =
    Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:w
      ~ngates:(2 + R.int rng 12)
  in
  let target = Ps_gen.Targets.random ~bits:w ~ncubes:1 ~density:0.5 rng in
  List.map
    (fun order -> (Preimage.Instance.make ~order c target).Preimage.Instance.positions)
    [ Preimage.Instance.Cone_first; Preimage.Instance.Reverse ]

(* [to_bdd] of [g] under [vars] holds exactly where [member] does:
   position [i] of an assignment is BDD variable [vars.(i)]. *)
let copy_agrees w g vars member =
  let f = Sg.to_bdd (B.new_man ~nvars:w) vars g in
  let moved = Array.make w false in
  let ok = ref true in
  Helpers.iter_assignments w (fun bits ->
      let bits = Array.sub bits 0 w in
      Array.iteri (fun i v -> moved.(v) <- bits.(i)) vars;
      if B.eval f moved <> member bits then ok := false);
  !ok

let sgraph_bdd_roundtrip =
  Helpers.qtest "to_bdd/of_bdd roundtrip" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let g = random_graph rng (Sg.new_man ~width:w) w in
      let f = identity_bdd w g in
      (* same variable order: the diagrams are isomorphic, so the paths
         read back from the BDD are the graph's, in the same order *)
      List.equal Cube.equal (A.Cube_set.of_bdd f ~width:w) (Sg.cubes g)
      && B.count_models ~nvars:w f = Sg.count_models g
      && B.size f = Sg.size g
      (* another order: the same function, variables renamed *)
      && List.for_all
           (fun vars -> copy_agrees w g vars (B.eval f))
           (projection_maps rng w))

(* --- Cube sets through the BDD core ---------------------------------------- *)

let test_to_bdd_one_cube () =
  let man = B.new_man ~nvars:4 in
  let f = A.Cube_set.to_bdd man [ Cube.of_string "1--0" ] in
  Alcotest.(check (float 0.0)) "count" 4.0 (B.count_models ~nvars:4 f);
  check_bool "mem" true (B.eval f [| true; false; true; false |]);
  check_bool "not mem" false (B.eval f [| true; false; true; true |]);
  (* full-dc cube is the one terminal, no cube the zero terminal *)
  check_bool "dc cube" true (B.is_one (A.Cube_set.to_bdd man [ Cube.make 4 ]));
  check_bool "no cube" true (B.is_zero (A.Cube_set.to_bdd man []));
  check_bool "reversed positions" true
    (B.equal
       (A.Cube_set.to_bdd ~var_of_pos:[| 3; 2; 1; 0 |] man [ Cube.of_string "1--0" ])
       (A.Cube_set.to_bdd man [ Cube.of_string "0--1" ]))

let to_bdd_set_semantics =
  Helpers.qtest "to_bdd = cube-set semantics" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let man = B.new_man ~nvars:w in
      let cs1 = List.init (1 + R.int rng 4) (fun _ -> random_cube rng w) in
      let cs2 = List.init (1 + R.int rng 4) (fun _ -> random_cube rng w) in
      let f1 = A.Cube_set.to_bdd man cs1 and f2 = A.Cube_set.to_bdd man cs2 in
      let u = A.Cube_set.to_bdd man (cs1 @ cs2) and i = B.band f1 f2 in
      let ok = ref true in
      Helpers.iter_assignments w (fun bits ->
          let m1 = List.exists (fun c -> Cube.contains c bits) cs1 in
          let m2 = List.exists (fun c -> Cube.contains c bits) cs2 in
          if B.eval u bits <> (m1 || m2) then ok := false;
          if B.eval i bits <> (m1 && m2) then ok := false;
          if B.eval f1 bits <> m1 then ok := false);
      (* the canonical cubes: a disjoint cover of the same set *)
      let canonical = A.Cube_set.of_bdd u ~width:w in
      !ok
      && B.equal u (B.bor f1 f2)
      && pairwise_disjoint canonical
      && A.Cube_set.equal_union w canonical (cs1 @ cs2)
      && A.Cube_set.union_count w (cs1 @ cs2) = B.count_models ~nvars:w u)

(* --- Lifting ---------------------------------------------------------------- *)

let lifting_sound =
  (* Freeze required leaves at model values; every completion of the other
     leaves must keep the root at its original value. *)
  Helpers.qtest "justification lifting is sound" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n = Helpers.random_comb rng ~nin:(2 + R.int rng 5) ~ngates:(1 + R.int rng 15) in
      let root = List.hd (N.outputs n) in
      let leaves = N.inputs n in
      (* random simulation point *)
      let env = Array.make (N.num_nets n) false in
      List.iter (fun net -> env.(net) <- R.bool rng) leaves;
      let values = Sim.eval n ~env in
      let s = A.Lifting.scratch n in
      A.Lifting.justify_roots s ~roots:[ root ] ~value:(Array.get values);
      let required = A.Lifting.required s in
      (* required positions are leaves only *)
      let leaves_only =
        List.for_all
          (fun i ->
            (not (required i))
            || (match N.driver n i with N.Input | N.Latch _ -> true | N.Gate _ -> false))
          (List.init (N.num_nets n) Fun.id)
      in
      let sound = ref true in
      for _ = 1 to 16 do
        let env' = Array.make (N.num_nets n) false in
        List.iter
          (fun net -> env'.(net) <- if required net then env.(net) else R.bool rng)
          leaves;
        let values' = Sim.eval n ~env:env' in
        if values'.(root) <> values.(root) then sound := false
      done;
      leaves_only && !sound)

(* The displaced recursive justification, kept as the oracle: the
   explicit-stack walk must choose exactly the same leaves, over several
   roots that share visited nets. *)
let recursive_justify n ~roots ~values =
  let visited = Array.make (N.num_nets n) false in
  let required = Array.make (N.num_nets n) false in
  let rec visit net =
    if not visited.(net) then begin
      visited.(net) <- true;
      match N.driver n net with
      | N.Input | N.Latch _ -> required.(net) <- true
      | N.Gate (kind, fanins) -> (
        let cv =
          match kind with
          | Ps_circuit.Gate.And | Ps_circuit.Gate.Nand -> Some false
          | Ps_circuit.Gate.Or | Ps_circuit.Gate.Nor -> Some true
          | _ -> None
        in
        match cv with
        (* controlled: the output a lone controlling input gives *)
        | Some cv when values.(net) = Ps_circuit.Gate.eval kind [| cv |] ->
          let candidates = ref [] in
          Array.iter (fun f -> if values.(f) = cv then candidates := f :: !candidates) fanins;
          visit
            (match List.find_opt (fun f -> visited.(f)) !candidates with
            | Some f -> f
            | None -> List.hd !candidates)
        | _ -> Array.iter visit fanins)
    end
  in
  List.iter visit roots;
  required

let lifting_matches_recursive =
  Helpers.qtest "explicit-stack justify = recursive justify" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n = Helpers.random_comb rng ~nin:(2 + R.int rng 5) ~ngates:(1 + R.int rng 20) in
      let env = Array.make (N.num_nets n) false in
      List.iter (fun net -> env.(net) <- R.bool rng) (N.inputs n);
      let values = Sim.eval n ~env in
      let roots = List.init (1 + R.int rng 3) (fun _ -> R.int rng (N.num_nets n)) in
      let s = A.Lifting.scratch n in
      (* a previous call on the same scratch must not leak into this one *)
      A.Lifting.justify_roots s ~roots:(N.inputs n) ~value:(Array.get values);
      A.Lifting.justify_roots s ~roots ~value:(Array.get values);
      let oracle = recursive_justify n ~roots ~values in
      List.for_all
        (fun net -> A.Lifting.required s net = oracle.(net))
        (List.init (N.num_nets n) Fun.id))

let test_lifting_prefers_shared () =
  (* AND(x, y) with output 0 and both inputs 0 requires only one of them. *)
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  let y = Ps_circuit.Builder.input b "y" in
  let g = Ps_circuit.Builder.and_ b ~name:"g" [ x; y ] in
  Ps_circuit.Builder.output b g;
  let n = Ps_circuit.Builder.finalize b in
  let s = A.Lifting.scratch n in
  A.Lifting.justify_roots s ~roots:[ g ] ~value:(fun _ -> false);
  let required net = if A.Lifting.required s net then 1 else 0 in
  check_int "exactly one input required" 1 (required x + required y)

(* Netlist construction (topological sort), cones and justification walk
   the netlist with explicit stacks: a 100k-gate chain must go through
   under a 32k-word stack limit, where a recursive walk raises
   Stack_overflow. *)
let test_lifting_deep_chain () =
  let module Bu = Ps_circuit.Builder in
  let depth = 100_000 in
  let saved = (Gc.get ()).Gc.stack_limit in
  Gc.set { (Gc.get ()) with Gc.stack_limit = 32 * 1024 };
  Fun.protect
    ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.stack_limit = saved })
  @@ fun () ->
  let b = Bu.create () in
  let x = Bu.input b "x" in
  let y = Bu.input b "y" in
  let last = ref x in
  for i = 1 to depth do
    let name = Printf.sprintf "g%d" i in
    last := if i mod 2 = 0 then Bu.buf b ~name !last else Bu.and_ b ~name [ !last; y ]
  done;
  Bu.output b !last;
  let n = Bu.finalize b in
  let cone = N.cone n [ !last ] in
  check_int "cone is the whole chain" (depth + 2)
    (Array.fold_left (fun k m -> if m then k + 1 else k) 0 cone);
  let s = A.Lifting.scratch n in
  let required ~x_value =
    let env = Array.make (N.num_nets n) true in
    env.(x) <- x_value;
    A.Lifting.justify_roots s ~roots:[ !last ] ~value:(Array.get (Sim.eval n ~env));
    (A.Lifting.required s x, A.Lifting.required s y)
  in
  (* output 1: every AND needs both fanins *)
  check_bool "x and y required" true (required ~x_value:true = (true, true));
  (* output 0: the chain itself controls every AND; y is a don't-care *)
  check_bool "only x required" true (required ~x_value:false = (true, false))

(* One [lift_mask] callback serves a whole enumeration: it reads each
   model in place and reuses its scratch, so a call allocates the mask
   and a few small closures, never a net-sized array. *)
let test_lift_mask_reuses_scratch () =
  let rng = R.create ~seed:11 in
  let n = Helpers.random_comb rng ~nin:8 ~ngates:300 in
  let root = List.hd (N.outputs n) in
  let proj_nets = Array.of_list (N.inputs n) in
  let models =
    Array.init 1_000 (fun _ ->
        let env = Array.make (N.num_nets n) false in
        List.iter (fun net -> env.(net) <- R.bool rng) (N.inputs n);
        Sim.eval n ~env)
  in
  let lift = A.Lifting.lift_mask n ~root ~proj_nets in
  ignore (lift models.(0));
  let words =
    Helpers.allocated_words (fun () -> Array.iter (fun m -> ignore (lift m)) models)
  in
  let per_call = words / Array.length models in
  if per_call >= N.num_nets n then
    Alcotest.failf "%d words per call for %d nets" per_call (N.num_nets n);
  Alcotest.check_raises "values too short"
    (Invalid_argument "Lifting.lift_mask: values too short") (fun () ->
      ignore (lift (Array.make (N.num_nets n - 1) false)))

(* --- Blocking + SDS cross-checks --------------------------------------------- *)

let setup_engines rng =
  let nin = 2 + R.int rng 5 in
  let n = Helpers.random_comb rng ~nin ~ngates:(1 + R.int rng 15) in
  let root = List.hd (N.outputs n) in
  let input_nets = Array.of_list (N.inputs n) in
  let nproj = 1 + R.int rng nin in
  let proj_nets = Array.sub input_nets 0 nproj in
  let proj = A.Project.of_vars proj_nets in
  let cnf = Ts.encode n in
  let mk_solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    ignore (Solver.add_clause s [ Lit.pos root ]);
    s
  in
  (* reference: projected assignments that extend to root=1 *)
  let expected = Hashtbl.create 64 in
  Helpers.iter_leaf_assignments n (fun env _ ->
      let values = Sim.eval n ~env in
      if values.(root) then
        Hashtbl.replace expected
          (Array.to_list (Array.map (fun net -> values.(net)) proj_nets))
          ());
  (n, root, proj_nets, proj, mk_solver, expected)

let blocking_complete_and_disjoint =
  Helpers.qtest "blocking minterm enumeration is exact and disjoint" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let _, _, _, proj, mk_solver, expected = setup_engines rng in
      let r = A.Blocking.enumerate (mk_solver ()) proj in
      let cubes = r.A.Run.cubes in
      List.length cubes = Hashtbl.length expected
      && A.Run.complete r
      && List.for_all (fun c -> Cube.num_free c = 0) cubes
      && List.for_all
           (fun c ->
             Hashtbl.mem expected
               (List.map snd (Cube.to_list c)))
           cubes)

let lifted_blocking_covers_exactly =
  Helpers.qtest "lifted blocking covers exactly the solution set" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n, root, proj_nets, proj, mk_solver, expected = setup_engines rng in
      let lift = A.Lifting.lift_mask n ~root ~proj_nets in
      let r = A.Blocking.enumerate ~lift (mk_solver ()) proj in
      let w = Array.length proj_nets in
      let ok = ref true in
      Helpers.iter_assignments w (fun bits ->
          let covered = List.exists (fun c -> Cube.contains c bits) r.A.Run.cubes in
          let solution = Hashtbl.mem expected (Array.to_list (Array.sub bits 0 w)) in
          if covered <> solution then ok := false);
      !ok
      (* never more SAT calls than the minterm engine needs *)
      && A.Blocking.sat_calls r <= Hashtbl.length expected + 1)

(* The lifted run shrinks models inside one chronological search: it
   leaves no clause behind, so a second run on the same solver finds the
   same solutions again, as disjoint cubes. *)
let lifted_blocking_adds_no_clause =
  Helpers.qtest "lifted blocking adds no clause" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n, root, proj_nets, proj, mk_solver, expected = setup_engines rng in
      let lift = A.Lifting.lift_mask n ~root ~proj_nets in
      let s = mk_solver () in
      let clauses = Solver.n_clauses s in
      let run () =
        let r = A.Blocking.enumerate ~lift s proj in
        let cubes = r.A.Run.cubes in
        A.Run.complete r && pairwise_disjoint cubes
        && A.Run.solutions r = float_of_int (Hashtbl.length expected)
        && A.Blocking.sat_calls r = 1
        && Solver.n_clauses s = clauses
      in
      let first = run () in
      let second = run () in
      first && second
      && (Solver.solve s = Solver.Sat) = (Hashtbl.length expected > 0))

let test_lift_mask_width () =
  let _, _, _, proj, mk_solver, _ = setup_engines (R.create ~seed:5) in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Blocking.enumerate: lift mask has wrong width")
    (fun () ->
      ignore
        (A.Blocking.enumerate
           ~lift:(fun _ -> Array.make (A.Project.width proj + 1) true)
           (mk_solver ()) proj))

let sds_matches_reference =
  Helpers.qtest "sds graph = reference solution set (memo on and off)" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n, root, proj_nets, _, mk_solver, expected = setup_engines rng in
      let check_config config =
        let r = A.Sds.search ~config ~netlist:n ~root ~proj_nets ~solver:(mk_solver ()) () in
        let w = Array.length proj_nets in
        let f = identity_bdd w (Option.get r.A.Run.graph) in
        let ok = ref true in
        Helpers.iter_assignments w (fun bits ->
            let bits = Array.sub bits 0 w in
            if B.eval f bits <> Hashtbl.mem expected (Array.to_list bits) then
              ok := false);
        !ok
      in
      check_config (A.Sds.config A.Sds.Sds)
      && check_config (A.Sds.config A.Sds.SdsNoMemo)
      && check_config (A.Sds.config A.Sds.SdsDynamic))

let dynamic_free_graph_invariants =
  Helpers.qtest "dynamic search builds a well-formed free graph" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n, root, proj_nets, _, mk_solver, expected = setup_engines rng in
      let r =
        A.Sds.search
          ~config:(A.Sds.config A.Sds.SdsDynamic)
          ~netlist:n ~root ~proj_nets ~solver:(mk_solver ()) ()
      in
      let g = (Option.get r.A.Run.graph) in
      let w = Array.length proj_nets in
      (* 1. paths are disjoint cubes covering the exact solution set *)
      let cubes = Sg.cubes g in
      let membership_ok = ref true in
      Helpers.iter_assignments w (fun bits ->
          let bits = Array.sub bits 0 w in
          let covered = List.exists (fun c -> Cube.contains c bits) cubes in
          if covered <> Hashtbl.mem expected (Array.to_list bits) then
            membership_ok := false);
      (* 2. path counting equals the true solution count *)
      let count = float_of_int (Hashtbl.length expected) in
      let member bits = Hashtbl.mem expected (Array.to_list bits) in
      (* 3. the copy into an ordered BDD, under the identity and under
         projection-order maps, is the same set *)
      pairwise_disjoint cubes
      && !membership_ok
      && Sg.count_models_paths g = count
      && B.count_models ~nvars:w (identity_bdd w g) = count
      && List.for_all
           (fun vars -> copy_agrees w g vars member)
           (Array.init w Fun.id :: projection_maps rng w))

let count_paths_matches_ordered_count =
  Helpers.qtest "count_models_paths = count_models on ordered graphs" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 6 in
      let g = random_graph rng (Sg.new_man ~width:w) w in
      Sg.count_models_paths g = Sg.count_models g)

let test_blocking_limit () =
  (* tautological instance over 4 inputs: 16 solutions; limit cuts it *)
  let b = Ps_circuit.Builder.create () in
  let ins = List.init 4 (fun i -> Ps_circuit.Builder.input b (Printf.sprintf "x%d" i)) in
  let g = Ps_circuit.Builder.or_ b ~name:"g" [ List.hd ins; Ps_circuit.Builder.not_ b (List.hd ins) ] in
  Ps_circuit.Builder.output b g;
  let n = Ps_circuit.Builder.finalize b in
  let proj = A.Project.of_vars (Array.of_list (N.inputs n)) in
  let cnf = Ts.encode n in
  (* 12 cubes: past the hand-over to chronological enumeration *)
  List.iter
    (fun limit ->
      let s = Solver.create () in
      ignore (Solver.load s cnf);
      ignore (Solver.add_clause s [ Lit.pos g ]);
      let r = A.Blocking.enumerate ~limit s proj in
      check_int "limit respected" limit (List.length r.A.Run.cubes);
      check_bool "incomplete" false (A.Run.complete r);
      check_bool "stopped on cube limit" true (r.A.Run.stopped = `CubeLimit);
      check_bool "chronological phase reached" (limit > 5)
        (Ps_util.Stats.get r.A.Run.stats "chrono_cubes" > 0))
    [ 5; 12 ]

let test_sds_success_learning_effective () =
  (* A disjunction of two identical subfunctions over disjoint variable
     blocks: after the first block is explored, signatures repeat and the
     memo must hit. *)
  let b = Ps_circuit.Builder.create () in
  let ins = List.init 8 (fun i -> Ps_circuit.Builder.input b (Printf.sprintf "x%d" i)) in
  let arr = Array.of_list ins in
  (* parity of the last 4 inputs: the residual function once the first 4
     are assigned is the same for all 16 prefixes *)
  let parity = Ps_circuit.Builder.xor_ b ~name:"p" [ arr.(4); arr.(5); arr.(6); arr.(7) ] in
  let gate = Ps_circuit.Builder.and_ b ~name:"g" [ arr.(0); parity ] in
  Ps_circuit.Builder.output b gate;
  let n = Ps_circuit.Builder.finalize b in
  let cnf = Ts.encode n in
  let mk_solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    ignore (Solver.add_clause s [ Lit.pos gate ]);
    s
  in
  let proj_nets = Array.of_list (N.inputs n) in
  let with_memo =
    A.Sds.search ~netlist:n ~root:gate ~proj_nets ~solver:(mk_solver ()) ()
  in
  let without =
    A.Sds.search
      ~config:(A.Sds.config A.Sds.SdsNoMemo)
      ~netlist:n ~root:gate ~proj_nets ~solver:(mk_solver ()) ()
  in
  let nodes st = Ps_util.Stats.get st "search_nodes" in
  check_bool "memo hits occurred" true
    (Ps_util.Stats.get (with_memo.A.Run.stats) "memo_hits" > 0);
  check_bool "memo shrinks the search" true
    (nodes (with_memo.A.Run.stats) < nodes (without.A.Run.stats));
  check_bool "same solution set" true
    (Sg.count_models (Option.get with_memo.A.Run.graph) = Sg.count_models (Option.get without.A.Run.graph))

let test_sds_graph_is_reduced () =
  (* graph node count never exceeds cube count * width and matches BDD *)
  let n = Ps_gen.Counters.binary ~bits:6 () in
  let tr = Ps_circuit.Transition.of_netlist n in
  ignore tr;
  let out = List.hd (N.outputs n) in
  let cnf = Ts.encode n in
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  ignore (Solver.add_clause s [ Lit.pos out ]);
  let proj_nets = Array.of_list (N.latches n) in
  let r = A.Sds.search ~netlist:n ~root:out ~proj_nets ~solver:s () in
  (* output is AND of all 6 state bits: one path *)
  Alcotest.(check (float 0.0)) "single solution" 1.0 (Sg.count_models (Option.get r.A.Run.graph));
  check_int "chain graph" 8 (Sg.size (Option.get r.A.Run.graph))

let test_sds_rejects_bad_projection () =
  (* r = a ∧ c. The ternary simulator reads only leaves and a net owns
     one position, so a repeated net or a gate in the projection would
     be enumerated wrongly: [|a; a|] used to yield the cube "-1" (which
     claims the inconsistent a=0, a=1) and [|r|] no cube at all. *)
  let b = Ps_circuit.Builder.create () in
  let a = Ps_circuit.Builder.input b "a" in
  let c = Ps_circuit.Builder.input b "c" in
  let r = Ps_circuit.Builder.and_ b ~name:"r" [ a; c ] in
  Ps_circuit.Builder.output b r;
  let n = Ps_circuit.Builder.finalize b in
  let cnf = Ts.encode n in
  let solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    ignore (Solver.add_clause s [ Lit.pos r ]);
    s
  in
  let rejects what proj_nets =
    match A.Sds.search ~netlist:n ~root:r ~proj_nets ~solver:(solver ()) () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "repeated net" [| a; a |];
  rejects "gate net" [| r |];
  let ok = A.Sds.search ~netlist:n ~root:r ~proj_nets:[| a; c |] ~solver:(solver ()) () in
  Alcotest.(check (list string)) "a, c" [ "11" ]
    (List.map Cube.to_string ok.A.Run.cubes)

(* Recorded from the engine as it was before probes were answered from
   the last model and memo keys became integer signatures: per circuit
   of [Suite.medium] and per variant, search nodes, memo hits, graph
   nodes, probes (then one solver call each), and an MD5 prefix of the
   cube list. The memo keys must keep meaning the same thing, so all of
   these stay equal; only the split of probes into solver calls and
   model hits may move. The graph sizes also pin the node store: a
   change of where graph nodes live must leave them equal. *)
let sds_golden =
  [
    (* name, (nodes, hits, graph, probes, cubes digest) for sds, then sds-dynamic *)
    ("s27", (7, 2, 1, 5, "9efc314b"), (3, 0, 1, 3, "9efc314b"));
    ("count8", (31, 12, 10, 17, "3f7b8473"), (31, 0, 10, 17, "b202e4df"));
    ("count12", (47, 20, 14, 25, "de6b03d7"), (47, 0, 14, 25, "19610a6f"));
    ("mod100", (35, 12, 9, 20, "399c26e8"), (33, 0, 9, 19, "2c25c58c"));
    ("johnson16", (31, 14, 3, 15, "e2c9373a"), (3, 0, 3, 1, "e2c9373a"));
    ("gray8", (31, 12, 10, 17, "3f7b8473"), (31, 0, 10, 17, "b202e4df"));
    ("lfsr16", (31, 14, 3, 15, "e2c9373a"), (3, 0, 3, 1, "e2c9373a"));
    ("traffic", (11, 1, 6, 6, "1d6430c9"), (19, 0, 6, 10, "f36269d1"));
    ("seqdet8", (17, 7, 3, 9, "791a2219"), (3, 0, 3, 2, "791a2219"));
    ("arbiter4", (151, 60, 6, 90, "eb09ac84"), (31, 0, 6, 30, "db7b05f0"));
    ("arbiter6", (883, 378, 8, 504, "b7864673"), (127, 0, 8, 126, "5a96b947"));
    ("fifo4", (51, 20, 8, 27, "2eb727c5"), (35, 4, 10, 19, "6eb2ec63"));
    ("fifo16", (203, 96, 12, 103, "c77e94a7"), (67, 8, 16, 35, "9a63c2ff"));
    ("rand_b", (35, 14, 4, 19, "858001cf"), (7, 0, 4, 5, "b2cd42e6"));
    ("rand_c", (29, 12, 4, 15, "f0277e41"), (5, 0, 4, 3, "f0277e41"));
  ]

(* Checks one golden row pair against [Engine.run] on [inst]. *)
let check_sds_golden name inst (sds, dyn) =
  let module E = Preimage.Engine in
  List.iter
    (fun (m, (nodes, hits, graph, probes, digest)) ->
      let what k = Printf.sprintf "%s %s %s" name (E.method_name m) k in
      let r = E.run m inst in
      let stat = Ps_util.Stats.get (E.stats r) in
      check_int (what "search_nodes") nodes (stat "search_nodes");
      check_int (what "memo_hits") hits (stat "memo_hits");
      check_int (what "graph_nodes") graph (stat "graph_nodes");
      check_int (what "probes") probes (stat "sat_calls" + stat "model_hits");
      Alcotest.(check string) (what "cubes") digest
        (String.sub
           (Digest.to_hex
              (Digest.string
                 (String.concat "," (List.map Cube.to_string (E.cubes r)))))
           0 8);
      (match Preimage.Check.engines_agree inst [ r ] with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" (what "bdd") msg);
      if name = "fifo16" then begin
        check_bool (what "model_hits > 0") true (stat "model_hits" > 0);
        check_bool (what "fewer solver calls") true (stat "sat_calls" < probes)
      end)
    [ (E.Sds, sds); (E.SdsDynamic, dyn) ]

let test_sds_golden () =
  let module Suite = Ps_gen.Suite in
  check_int "every medium circuit" (List.length Suite.medium)
    (List.length sds_golden);
  List.iter
    (fun e ->
      let name = e.Suite.name in
      let row =
        match List.find_opt (fun (n, _, _) -> n = name) sds_golden with
        | Some (_, sds, dyn) -> (sds, dyn)
        | None -> Alcotest.failf "%s: no golden row" name
      in
      check_sds_golden name
        (Preimage.Instance.make (Lazy.force e.Suite.circuit)
           (Suite.default_target e))
        row)
    Suite.medium

(* The 16-bit Fibonacci LFSR with k taps, target = feedback bit high: a
   parity objective. Before the signature folded an X-valued XOR's
   constant fanins into one parity word, every row searched 2^(k+1) - 1
   nodes with 0 memo hits (k = 12: 8191 nodes, 4095 probes); the graph
   and the cubes were the same as now. *)
let sds_golden_lfsr =
  [
    (* taps, (nodes, hits, graph, probes, cubes digest) for sds, then sds-dynamic *)
    (10, (39, 16, 21, 19, "4b41d2c4"), (39, 16, 21, 19, "4b41d2c4"));
    (12, (47, 20, 25, 23, "4b32441a"), (47, 20, 25, 23, "4b32441a"));
    (14, (55, 24, 29, 27, "be45aa4f"), (55, 24, 29, 27, "be45aa4f"));
  ]

let test_sds_golden_lfsr () =
  List.iter
    (fun (k, sds, dyn) ->
      let c = Ps_gen.Lfsr.fibonacci ~bits:16 ~taps:(List.init k Fun.id) () in
      check_sds_golden
        (Printf.sprintf "lfsr16-xor%d" k)
        (Preimage.Instance.make c (Ps_gen.Targets.bit_high ~bits:16 0))
        (sds, dyn))
    sds_golden_lfsr

(* A solver decides only variables that some stored clause mentions, so
   between two backtracks (a conflict, a restart, or the start of a
   call) each of them is decided at most once; assumptions are not
   counted as decisions. Out-of-cone nets and unit-clause variables
   never count. *)
let test_sds_decisions_bounded_by_cone () =
  let module Suite = Ps_gen.Suite in
  let module E = Preimage.Engine in
  List.iter
    (fun e ->
      let inst =
        Preimage.Instance.make (Lazy.force e.Suite.circuit) (Suite.default_target e)
      in
      let cnf = inst.Preimage.Instance.cnf in
      let mentioned = Array.make cnf.Ps_sat.Cnf.nvars false in
      List.iter
        (fun c ->
          if Array.length c >= 2 then
            Array.iter (fun l -> mentioned.(Lit.var l) <- true) c)
        cnf.Ps_sat.Cnf.clauses;
      let cone = Array.fold_left (fun n m -> if m then n + 1 else n) 0 mentioned in
      List.iter
        (fun m ->
          let stat = Ps_util.Stats.get (E.stats (E.run m inst)) in
          let backtracks = stat "sat_calls" + stat "conflicts" + stat "restarts" in
          let decisions = stat "decisions" in
          if decisions > backtracks * cone then
            Alcotest.failf "%s %s: %d decisions > %d backtracks x %d cone variables"
              e.Suite.name (E.method_name m) decisions backtracks cone)
        [ E.Sds; E.SdsDynamic ])
    Suite.medium

let test_sds_xnor_shared_fanin () =
  (* r = XNOR(a, b, c) ∨ (a ∧ d). Once a and b are assigned, the XNOR
     is X with the parity a ⊕ b folded into one signature word; a is
     also read by the AND, whose walk must still record a's value.
     Prefixes 00 and 01 differ only in that parity, and their residuals
     (¬c and c) differ too. *)
  let b = Ps_circuit.Builder.create () in
  let input = Ps_circuit.Builder.input b in
  let xa = input "a" and xb = input "b" and xc = input "c" and xd = input "d" in
  let x = Ps_circuit.Builder.xnor_ b ~name:"x" [ xa; xb; xc ] in
  let y = Ps_circuit.Builder.and_ b ~name:"y" [ xa; xd ] in
  let r = Ps_circuit.Builder.or_ b ~name:"r" [ x; y ] in
  Ps_circuit.Builder.output b r;
  let n = Ps_circuit.Builder.finalize b in
  let cnf = Ts.encode n in
  let proj_nets = [| xa; xb; xc; xd |] in
  let reference bits =
    let a = bits.(0) and b = bits.(1) and c = bits.(2) and d = bits.(3) in
    not (a <> b <> c) || (a && d)
  in
  List.iter
    (fun (label, variant) ->
      let s = Solver.create () in
      ignore (Solver.load s cnf);
      ignore (Solver.add_clause s [ Lit.pos r ]);
      let res =
        A.Sds.search ~config:(A.Sds.config variant) ~netlist:n ~root:r
          ~proj_nets ~solver:s ()
      in
      Helpers.iter_assignments 4 (fun bits ->
          let bits = Array.sub bits 0 4 in
          check_bool
            (Printf.sprintf "%s %s" label (Cube.to_string (Cube.of_assignment bits)))
            (reference bits)
            (List.exists (fun c -> Cube.contains c bits) res.A.Run.cubes)))
    [ ("sds", A.Sds.Sds); ("sds-dynamic", A.Sds.SdsDynamic);
      ("sds-nomemo", A.Sds.SdsNoMemo) ]

let () =
  Alcotest.run "ps_allsat"
    [
      ( "cube",
        [
          Alcotest.test_case "basic" `Quick test_cube_basic;
          Alcotest.test_case "strings" `Quick test_cube_strings;
          Alcotest.test_case "relations" `Quick test_cube_relations;
          cube_minterms_consistent;
          cube_subsumption_semantics;
        ] );
      ("project", [ Alcotest.test_case "basics" `Quick test_project ]);
      ( "solution_graph",
        [
          Alcotest.test_case "basic" `Quick test_sgraph_basic;
          sgraph_cubes_partition;
          sgraph_bdd_roundtrip;
        ] );
      ( "cube_set",
        [
          Alcotest.test_case "to_bdd of one cube" `Quick test_to_bdd_one_cube;
          to_bdd_set_semantics;
        ] );
      ( "lifting",
        [
          lifting_sound;
          lifting_matches_recursive;
          Alcotest.test_case "controlling choice" `Quick test_lifting_prefers_shared;
          Alcotest.test_case "100k-gate chain, 32k-word stack" `Quick
            test_lifting_deep_chain;
          Alcotest.test_case "lift_mask reuses its scratch" `Quick
            test_lift_mask_reuses_scratch;
        ] );
      ( "engines",
        [
          blocking_complete_and_disjoint;
          lifted_blocking_covers_exactly;
          lifted_blocking_adds_no_clause;
          Alcotest.test_case "lift mask width" `Quick test_lift_mask_width;
          sds_matches_reference;
          dynamic_free_graph_invariants;
          count_paths_matches_ordered_count;
          Alcotest.test_case "blocking limit" `Quick test_blocking_limit;
          Alcotest.test_case "success-driven learning effective" `Quick
            test_sds_success_learning_effective;
          Alcotest.test_case "graph reduction" `Quick test_sds_graph_is_reduced;
          Alcotest.test_case "sds rejects bad projections" `Quick
            test_sds_rejects_bad_projection;
          Alcotest.test_case "sds golden medium suite" `Quick test_sds_golden;
          Alcotest.test_case "sds golden lfsr parity" `Quick test_sds_golden_lfsr;
          Alcotest.test_case "sds decisions bounded by the cone" `Quick
            test_sds_decisions_bounded_by_cone;
          Alcotest.test_case "sds xnor fanin on two paths" `Quick
            test_sds_xnor_shared_fanin;
        ] );
    ]
