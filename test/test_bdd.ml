(* Tests for Ps_bdd.Bdd: operations validated against truth tables,
   quantification against cofactor identities, hash-consing canonicity. *)

module B = Ps_bdd.Bdd
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- construction and terminals ----------------------------------------- *)

let test_terminals () =
  let m = B.new_man ~nvars:2 in
  check_bool "zero" true (B.is_zero (B.zero m));
  check_bool "one" true (B.is_one (B.one m));
  check_bool "not zero" true (B.is_one (B.bnot (B.zero m)));
  check_int "nvars" 2 (B.nvars m);
  check_int "no internal nodes yet" 0 (B.num_nodes m);
  Alcotest.check_raises "negative nvars" (Invalid_argument "Bdd.new_man: negative nvars")
    (fun () -> ignore (B.new_man ~nvars:(-1)))

let test_var () =
  let m = B.new_man ~nvars:3 in
  let x = B.var m 1 in
  check_bool "eval x=1" true (B.eval x [| false; true; false |]);
  check_bool "eval x=0" false (B.eval x [| true; false; true |]);
  check_bool "nvar" true (B.eval (B.nvar m 1) [| false; false; false |]);
  Alcotest.check_raises "var out of range" (Invalid_argument "Bdd: variable out of range")
    (fun () -> ignore (B.var m 3))

let test_hash_consing () =
  let m = B.new_man ~nvars:4 in
  let f1 = B.band (B.var m 0) (B.var m 1) in
  let f2 = B.band (B.var m 1) (B.var m 0) in
  check_bool "AND commutes to same node" true (B.equal f1 f2);
  let g1 = B.bor (B.bnot (B.var m 0)) (B.bnot (B.var m 1)) in
  check_bool "De Morgan to same node" true (B.equal (B.bnot f1) g1);
  (* double negation restores the very node *)
  check_bool "not involution" true (B.equal f1 (B.bnot (B.bnot f1)))

let test_manager_mixing () =
  let m1 = B.new_man ~nvars:2 and m2 = B.new_man ~nvars:2 in
  Alcotest.check_raises "mixing managers"
    (Invalid_argument "Bdd: mixing nodes from different managers") (fun () ->
      ignore (B.band (B.var m1 0) (B.var m2 0)))

(* [mk] checks the level and the children's manager, not the order: a
   free node (a child above its parent) is accepted, and [copy] turns
   it into the ordered BDD of the same function. *)
let test_mk_and_copy () =
  let m = B.new_man ~nvars:2 and into = B.new_man ~nvars:3 in
  let lo = B.zero m and hi = B.one m in
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Bdd: variable out of range") (fun () ->
      ignore (B.mk m ~level:2 ~lo ~hi));
  Alcotest.check_raises "child from another manager"
    (Invalid_argument "Bdd.mk: child from another manager") (fun () ->
      ignore (B.mk m ~level:0 ~lo:(B.zero into) ~hi));
  check_bool "reduction" true (B.equal (B.mk m ~level:0 ~lo:hi ~hi) hi);
  check_bool "same node as var" true (B.equal (B.mk m ~level:0 ~lo ~hi) (B.var m 0));
  (* x1 ∧ x0, tested x1 first *)
  let free = B.mk m ~level:1 ~lo ~hi:(B.var m 0) in
  let copy = B.copy ~into ~vars:[| 2; 0 |] free in
  check_bool "copy is the ordered BDD" true
    (B.equal copy (B.band (B.var into 0) (B.var into 2)));
  Alcotest.check_raises "variable outside the map"
    (Invalid_argument "Bdd.copy: variable outside the map") (fun () ->
      ignore (B.copy ~into ~vars:[| 0 |] free))

(* --- operations vs truth tables ------------------------------------------ *)

let ops_match_truth_tables =
  Helpers.qtest "random expressions match truth tables" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 6 in
      let m = B.new_man ~nvars in
      let e = Helpers.random_expr rng 5 nvars in
      let f = Helpers.bdd_of_expr m e in
      let ok = ref true in
      let count = ref 0 in
      Helpers.iter_assignments nvars (fun a ->
          let expected = Helpers.eval_expr e a in
          if expected then incr count;
          if B.eval f a <> expected then ok := false);
      !ok && B.count_models ~nvars f = float_of_int !count)

let test_ite_gates () =
  let m = B.new_man ~nvars:3 in
  let x = B.var m 0 and y = B.var m 1 and z = B.var m 2 in
  check_bool "ite(x,y,z) = xy + !xz" true
    (B.equal (B.ite x y z) (B.bor (B.band x y) (B.band (B.bnot x) z)));
  check_bool "nand" true (B.equal (B.bnand x y) (B.bnot (B.band x y)));
  check_bool "nor" true (B.equal (B.bnor x y) (B.bnot (B.bor x y)));
  check_bool "xnor" true (B.equal (B.bxnor x y) (B.bnot (B.bxor x y)));
  check_bool "imp" true (B.equal (B.bimp x y) (B.bor (B.bnot x) y));
  check_bool "xor via ite" true (B.equal (B.bxor x y) (B.ite x (B.bnot y) y))

(* --- quantification ------------------------------------------------------- *)

let quantify_matches_cofactors =
  Helpers.qtest "exists/forall = or/and of cofactors" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 5 in
      let m = B.new_man ~nvars in
      let f = Helpers.bdd_of_expr m (Helpers.random_expr rng 5 nvars) in
      let v = R.int rng nvars in
      let f0 = B.restrict f ~var:v ~value:false in
      let f1 = B.restrict f ~var:v ~value:true in
      B.equal (B.exists [ v ] f) (B.bor f0 f1)
      && B.equal (B.forall [ v ] f) (B.band f0 f1))

let and_exists_matches =
  Helpers.qtest "and_exists = exists of conjunction" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 5 in
      let m = B.new_man ~nvars in
      let f = Helpers.bdd_of_expr m (Helpers.random_expr rng 4 nvars) in
      let g = Helpers.bdd_of_expr m (Helpers.random_expr rng 4 nvars) in
      let vars = List.filter (fun _ -> R.bool rng) (List.init nvars Fun.id) in
      B.equal (B.and_exists vars f g) (B.exists vars (B.band f g)))

let test_quantify_multi () =
  let m = B.new_man ~nvars:4 in
  let f = B.band (B.var m 0) (B.band (B.var m 1) (B.var m 3)) in
  check_bool "exists all support" true (B.is_one (B.exists [ 0; 1; 3 ] f));
  check_bool "forall strips to zero" true (B.is_zero (B.forall [ 0 ] f));
  check_bool "exists no vars" true (B.equal f (B.exists [] f));
  (* quantifying a variable outside the support is a no-op *)
  check_bool "exists non-support" true (B.equal f (B.exists [ 2 ] f))

(* --- compose --------------------------------------------------------------- *)

let compose_matches_semantics =
  Helpers.qtest "compose = substitution semantics" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 4 in
      let m = B.new_man ~nvars in
      let e = Helpers.random_expr rng 4 nvars in
      let f = Helpers.bdd_of_expr m e in
      let sub_exprs = Array.init nvars (fun _ -> Helpers.random_expr rng 3 nvars) in
      let subst = Array.map (Helpers.bdd_of_expr m) sub_exprs in
      let composed = B.compose f subst in
      let ok = ref true in
      Helpers.iter_assignments nvars (fun a ->
          let inner = Array.map (fun se -> Helpers.eval_expr se a) sub_exprs in
          if B.eval composed a <> Helpers.eval_expr e inner then ok := false);
      !ok)

let test_compose_identity () =
  let m = B.new_man ~nvars:3 in
  let f = B.bxor (B.var m 0) (B.band (B.var m 1) (B.var m 2)) in
  let id = Array.init 3 (fun i -> B.var m i) in
  check_bool "identity compose" true (B.equal f (B.compose f id));
  Alcotest.check_raises "short subst"
    (Invalid_argument "Bdd.compose: substitution array too short") (fun () ->
      ignore (B.compose f [| B.var m 0 |]))

(* --- structure queries ------------------------------------------------------ *)

let test_support_size () =
  let m = B.new_man ~nvars:5 in
  let f = B.band (B.var m 0) (B.bxor (B.var m 2) (B.var m 4)) in
  Alcotest.(check (list int)) "support" [ 0; 2; 4 ] (B.support f);
  Alcotest.(check (list int)) "terminal support" [] (B.support (B.one m));
  check_bool "size counts terminals" true (B.size f >= 3);
  check_int "terminal size" 1 (B.size (B.zero m))

let test_topvar_children () =
  let m = B.new_man ~nvars:3 in
  let f = B.band (B.var m 1) (B.var m 2) in
  Alcotest.(check (option int)) "topvar" (Some 1) (B.topvar f);
  Alcotest.(check (option int)) "terminal topvar" None (B.topvar (B.one m));
  check_bool "low cofactor" true (B.is_zero (B.low f));
  check_bool "high cofactor" true (B.equal (B.high f) (B.var m 2));
  Alcotest.check_raises "low of terminal" (Invalid_argument "Bdd.low: terminal")
    (fun () -> ignore (B.low (B.one m)))

let cubes_partition_onset =
  Helpers.qtest "iter_cubes paths partition the on-set" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 6 in
      let m = B.new_man ~nvars in
      let e = Helpers.random_expr rng 5 nvars in
      let f = Helpers.bdd_of_expr m e in
      let total = ref 0.0 in
      B.iter_cubes f ~nvars (fun path ->
          let free = Array.fold_left (fun n x -> if x = None then n + 1 else n) 0 path in
          total := !total +. (2.0 ** float_of_int free));
      !total = B.count_models ~nvars f)

let test_any_sat () =
  let m = B.new_man ~nvars:3 in
  check_bool "unsat" true (B.any_sat (B.zero m) = None);
  (match B.any_sat (B.one m) with
  | Some [] -> ()
  | _ -> Alcotest.fail "one should give the empty assignment");
  let f = B.band (B.var m 0) (B.bnot (B.var m 2)) in
  match B.any_sat f with
  | Some lits ->
    let a = Array.make 3 false in
    List.iter (fun (v, value) -> a.(v) <- value) lits;
    check_bool "assignment satisfies" true (B.eval f a)
  | None -> Alcotest.fail "expected sat"

let test_of_cnf () =
  let m = B.new_man ~nvars:3 in
  (* (x0 | !x1)(x2) *)
  let f = B.of_cnf m [ [ (0, true); (1, false) ]; [ (2, true) ] ] in
  check_bool "model" true (B.eval f [| true; true; true |]);
  check_bool "non-model" false (B.eval f [| false; true; true |]);
  check_bool "empty clause set is one" true (B.is_one (B.of_cnf m []));
  check_bool "empty clause is zero" true (B.is_zero (B.of_cnf m [ [] ]))

let test_count_models_free_vars () =
  let m = B.new_man ~nvars:3 in
  let f = B.var m 1 in
  Alcotest.(check (float 0.0)) "count with 2 free vars" 4.0 (B.count_models ~nvars:3 f);
  Alcotest.(check (float 0.0)) "count padded space" 8.0 (B.count_models ~nvars:4 f);
  Alcotest.check_raises "nvars too small"
    (Invalid_argument "Bdd.count_models: nvars too small") (fun () ->
      ignore (B.count_models ~nvars:2 f))

let test_cube () =
  let m = B.new_man ~nvars:4 in
  let c = B.cube m [ (0, true); (3, false) ] in
  check_bool "in cube" true (B.eval c [| true; false; true; false |]);
  check_bool "out of cube" false (B.eval c [| true; false; true; true |]);
  Alcotest.(check (float 0.0)) "cube count" 4.0 (B.count_models ~nvars:4 c)

(* [cube] builds bottom-up; the [band] fold of single literals is the
   reference. The literal lists come unsorted, may repeat a literal, and
   on some seeds fix a variable both ways, where the cube is [zero]. *)
let cube_matches_band_fold =
  Helpers.qtest "cube = band fold of its literals" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 6 in
      let m = B.new_man ~nvars in
      let lits =
        List.init (R.int rng (nvars + 3)) (fun _ -> (R.int rng nvars, R.bool rng))
      in
      let lits =
        match lits with
        | (v, value) :: _ when R.int rng 4 = 0 -> (v, not value) :: lits
        | _ -> lits
      in
      let reference =
        List.fold_left
          (fun acc (v, value) -> B.band acc (if value then B.var m v else B.nvar m v))
          (B.one m) lits
      in
      let contradictory =
        List.exists (fun (v, value) -> List.mem (v, not value) lits) lits
      in
      let c = B.cube m lits in
      B.equal c reference && B.is_zero c = contradictory)

let () =
  Alcotest.run "ps_bdd"
    [
      ( "construction",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "variables" `Quick test_var;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "manager mixing" `Quick test_manager_mixing;
          Alcotest.test_case "mk and copy" `Quick test_mk_and_copy;
        ] );
      ( "operations",
        [
          ops_match_truth_tables;
          Alcotest.test_case "ite and derived gates" `Quick test_ite_gates;
        ] );
      ( "quantification",
        [
          quantify_matches_cofactors;
          and_exists_matches;
          Alcotest.test_case "multi-var cases" `Quick test_quantify_multi;
        ] );
      ( "compose",
        [
          compose_matches_semantics;
          Alcotest.test_case "identity" `Quick test_compose_identity;
        ] );
      ( "queries",
        [
          Alcotest.test_case "support/size" `Quick test_support_size;
          Alcotest.test_case "topvar/children" `Quick test_topvar_children;
          cubes_partition_onset;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "of_cnf" `Quick test_of_cnf;
          Alcotest.test_case "count with free vars" `Quick test_count_models_free_vars;
          Alcotest.test_case "cube" `Quick test_cube;
          cube_matches_band_fold;
        ] );
    ]
