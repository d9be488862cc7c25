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

let test_sgraph_basic () =
  let m = Sg.new_man ~width:3 in
  check_bool "zero" true (Sg.is_zero (Sg.zero m));
  check_bool "one" true (Sg.is_one (Sg.one m));
  let n = Sg.mk m ~level:1 ~lo:(Sg.zero m) ~hi:(Sg.one m) in
  check_bool "reduction" true (Sg.equal (Sg.mk m ~level:0 ~lo:n ~hi:n) n);
  check_bool "hash-consing" true
    (Sg.equal n (Sg.mk m ~level:1 ~lo:(Sg.zero m) ~hi:(Sg.one m)));
  Alcotest.(check (float 0.0)) "count" 4.0 (Sg.count_models n);
  check_bool "mem" true (Sg.mem n [| false; true; false |]);
  check_bool "not mem" false (Sg.mem n [| false; false; false |])

let test_sgraph_of_cube () =
  let m = Sg.new_man ~width:4 in
  let g = Sg.of_cube m (Cube.of_string "1--0") in
  Alcotest.(check (float 0.0)) "count" 4.0 (Sg.count_models g);
  check_bool "mem" true (Sg.mem g [| true; false; true; false |]);
  check_bool "not mem" false (Sg.mem g [| true; false; true; true |]);
  (* full-dc cube is the one terminal *)
  check_bool "dc cube" true (Sg.is_one (Sg.of_cube m (Cube.make 4)))

let sgraph_union_inter_semantics =
  Helpers.qtest "union/inter match cube-set semantics" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let m = Sg.new_man ~width:w in
      let rand_cube () =
        Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ]))
      in
      let cs1 = List.init (1 + R.int rng 4) (fun _ -> rand_cube ()) in
      let cs2 = List.init (1 + R.int rng 4) (fun _ -> rand_cube ()) in
      let g_of cs =
        List.fold_left (fun acc c -> Sg.union acc (Sg.of_cube m c)) (Sg.zero m) cs
      in
      let g1 = g_of cs1 and g2 = g_of cs2 in
      let u = Sg.union g1 g2 and i = Sg.inter g1 g2 in
      let ok = ref true in
      Helpers.iter_assignments w (fun bits ->
          let m1 = List.exists (fun c -> Cube.contains c bits) cs1 in
          let m2 = List.exists (fun c -> Cube.contains c bits) cs2 in
          if Sg.mem u bits <> (m1 || m2) then ok := false;
          if Sg.mem i bits <> (m1 && m2) then ok := false;
          if Sg.mem g1 bits <> m1 then ok := false);
      !ok)

let sgraph_cubes_partition =
  Helpers.qtest "iter_cubes yields disjoint cover with exact count" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let m = Sg.new_man ~width:w in
      let g =
        List.fold_left
          (fun acc _ ->
            Sg.union acc
              (Sg.of_cube m
                 (Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ])))))
          (Sg.zero m)
          (List.init (1 + R.int rng 3) Fun.id)
      in
      let cubes = Sg.cubes g in
      let sum =
        List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 cubes
      in
      (* disjointness *)
      let rec pairwise_disjoint = function
        | [] -> true
        | c :: rest ->
          List.for_all (fun c' -> not (Cube.intersects c c')) rest
          && pairwise_disjoint rest
      in
      sum = Sg.count_models g && pairwise_disjoint cubes)

let sgraph_bdd_roundtrip =
  Helpers.qtest "to_bdd/of_bdd roundtrip" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 5 in
      let m = Sg.new_man ~width:w in
      let g =
        List.fold_left
          (fun acc _ ->
            Sg.union acc
              (Sg.of_cube m
                 (Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ])))))
          (Sg.zero m)
          (List.init (1 + R.int rng 4) Fun.id)
      in
      let bman = B.new_man ~nvars:w in
      let vars = Array.init w Fun.id in
      let f = Sg.to_bdd bman vars g in
      let g' = Sg.of_bdd m f ~vars in
      Sg.equal g g'
      && B.count_models ~nvars:w f = Sg.count_models g
      (* same variable order: node counts coincide *)
      && B.size f = Sg.size g)

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
      let required = A.Lifting.justify n ~root ~values in
      (* required positions are leaves only *)
      let leaves_only =
        List.for_all
          (fun i ->
            (not required.(i))
            || (match N.driver n i with N.Input | N.Latch _ -> true | N.Gate _ -> false))
          (List.init (N.num_nets n) Fun.id)
      in
      let sound = ref true in
      for _ = 1 to 16 do
        let env' = Array.make (N.num_nets n) false in
        List.iter
          (fun net -> env'.(net) <- if required.(net) then env.(net) else R.bool rng)
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
  let values = [| false; false; false |] in
  let req = A.Lifting.justify n ~root:g ~values in
  check_int "exactly one input required"
    1
    ((if req.(x) then 1 else 0) + if req.(y) then 1 else 0)

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
  let required ~x_value =
    let env = Array.make (N.num_nets n) true in
    env.(x) <- x_value;
    let req = A.Lifting.justify n ~root:!last ~values:(Sim.eval n ~env) in
    (req.(x), req.(y))
  in
  (* output 1: every AND needs both fanins *)
  check_bool "x and y required" true (required ~x_value:true = (true, true));
  (* output 0: the chain itself controls every AND; y is a don't-care *)
  check_bool "only x required" true (required ~x_value:false = (true, false))

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
      let lift model =
        A.Lifting.lift_mask n ~root ~values:(Array.sub model 0 (N.num_nets n)) ~proj_nets
      in
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

let sds_matches_reference =
  Helpers.qtest "sds graph = reference solution set (memo on and off)" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n, root, proj_nets, _, mk_solver, expected = setup_engines rng in
      let check_config config =
        let r = A.Sds.search ~config ~netlist:n ~root ~proj_nets ~solver:(mk_solver ()) () in
        let ok = ref true in
        Helpers.iter_assignments (Array.length proj_nets) (fun bits ->
            let bits = Array.sub bits 0 (Array.length proj_nets) in
            if
              Sg.mem (Option.get r.A.Run.graph) bits
              <> Hashtbl.mem expected (Array.to_list bits)
            then ok := false);
        !ok
      in
      check_config (A.Sds.config A.Sds.Sds)
      && check_config (A.Sds.config A.Sds.SdsNoMemo)
      && check_config (A.Sds.config ~use_sat:false A.Sds.Sds)
      && check_config (A.Sds.config A.Sds.SdsDynamic)
      && check_config (A.Sds.config ~use_memo:false A.Sds.SdsDynamic))

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
      let rec pairwise_disjoint = function
        | [] -> true
        | c :: rest ->
          List.for_all (fun c' -> not (Cube.intersects c c')) rest
          && pairwise_disjoint rest
      in
      let membership_ok = ref true in
      Helpers.iter_assignments w (fun bits ->
          let bits = Array.sub bits 0 w in
          let covered = List.exists (fun c -> Cube.contains c bits) cubes in
          if covered <> Hashtbl.mem expected (Array.to_list bits) then
            membership_ok := false);
      (* 2. path counting equals the true solution count *)
      pairwise_disjoint cubes
      && !membership_ok
      && Sg.count_models_paths g = float_of_int (Hashtbl.length expected))

let count_paths_matches_ordered_count =
  Helpers.qtest "count_models_paths = count_models on ordered graphs" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 6 in
      let m = Sg.new_man ~width:w in
      let g =
        List.fold_left
          (fun acc _ ->
            Sg.union acc
              (Sg.of_cube m
                 (Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ])))))
          (Sg.zero m)
          (List.init (1 + R.int rng 4) Fun.id)
      in
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
          Alcotest.test_case "of_cube" `Quick test_sgraph_of_cube;
          sgraph_union_inter_semantics;
          sgraph_cubes_partition;
          sgraph_bdd_roundtrip;
        ] );
      ( "lifting",
        [
          lifting_sound;
          lifting_matches_recursive;
          Alcotest.test_case "controlling choice" `Quick test_lifting_prefers_shared;
          Alcotest.test_case "100k-gate chain, 32k-word stack" `Quick
            test_lifting_deep_chain;
        ] );
      ( "engines",
        [
          blocking_complete_and_disjoint;
          lifted_blocking_covers_exactly;
          sds_matches_reference;
          dynamic_free_graph_invariants;
          count_paths_matches_ordered_count;
          Alcotest.test_case "blocking limit" `Quick test_blocking_limit;
          Alcotest.test_case "success-driven learning effective" `Quick
            test_sds_success_learning_effective;
          Alcotest.test_case "graph reduction" `Quick test_sds_graph_is_reduced;
        ] );
    ]
