(* Tests for Ps_sat: literals, CNF container, DIMACS I/O, the CDCL
   solver (validated against the brute-force oracle) and CNF
   preprocessing. *)

module Lit = Ps_sat.Lit
module Cnf = Ps_sat.Cnf
module Solver = Ps_sat.Solver
module Dimacs = Ps_sat.Dimacs
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sat = Alcotest.testable (fun ppf -> function
  | Solver.Sat -> Format.pp_print_string ppf "SAT"
  | Solver.Unsat -> Format.pp_print_string ppf "UNSAT"
  | Solver.Unknown -> Format.pp_print_string ppf "UNKNOWN")
  ( = )

(* --- Lit ---------------------------------------------------------------- *)

let test_lit_encoding () =
  check_int "pos var" 3 (Lit.var (Lit.pos 3));
  check_int "neg var" 3 (Lit.var (Lit.neg 3));
  check_bool "pos sign" true (Lit.sign (Lit.pos 3));
  check_bool "neg sign" false (Lit.sign (Lit.neg 3));
  check_int "negate involution" (Lit.pos 7) (Lit.negate (Lit.negate (Lit.pos 7)));
  check_int "negate flips" (Lit.neg 7) (Lit.negate (Lit.pos 7));
  Alcotest.check_raises "negative var" (Invalid_argument "Lit.make: negative variable")
    (fun () -> ignore (Lit.make (-1) true))

let test_lit_dimacs () =
  check_int "of_dimacs pos" (Lit.pos 0) (Lit.of_dimacs 1);
  check_int "of_dimacs neg" (Lit.neg 4) (Lit.of_dimacs (-5));
  check_int "to_dimacs pos" 1 (Lit.to_dimacs (Lit.pos 0));
  check_int "to_dimacs neg" (-5) (Lit.to_dimacs (Lit.neg 4));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_dimacs: zero") (fun () ->
      ignore (Lit.of_dimacs 0))

let lit_dimacs_roundtrip =
  Helpers.qtest "dimacs literal roundtrip" QCheck.(int_range 1 10000) (fun n ->
      Lit.to_dimacs (Lit.of_dimacs n) = n
      && Lit.to_dimacs (Lit.of_dimacs (-n)) = -n)

(* --- Cnf ---------------------------------------------------------------- *)

let test_cnf_eval () =
  let f =
    Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0; Lit.neg 1 ]; [ Lit.pos 2 ] ]
  in
  check_bool "satisfied" true (Cnf.eval f [| true; true; true |]);
  check_bool "clause 2 falsified" false (Cnf.eval f [| true; true; false |]);
  check_bool "clause 1 falsified" false (Cnf.eval f [| false; true; true |]);
  check_int "nclauses" 2 (Cnf.nclauses f);
  Alcotest.check_raises "short assignment"
    (Invalid_argument "Cnf.eval: assignment too short") (fun () ->
      ignore (Cnf.eval f [| true |]))

let test_cnf_brute_force () =
  (* x0 XOR x1 as CNF: (x0 | x1) (!x0 | !x1) — exactly 2 models *)
  let f =
    Cnf.of_clauses ~nvars:2
      [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 0; Lit.neg 1 ] ]
  in
  check_int "model count" 2 (List.length (Cnf.brute_force_models f));
  check_bool "sat" true (Cnf.brute_force_sat f);
  let unsat = Cnf.add_clause (Cnf.add_clause Cnf.empty [ Lit.pos 0 ]) [ Lit.neg 0 ] in
  check_bool "unsat" false (Cnf.brute_force_sat unsat);
  (* empty formula has one (empty) model *)
  check_int "empty formula" 1 (List.length (Cnf.brute_force_models Cnf.empty))

let test_cnf_projected_count () =
  (* f = x0 (free x1): projections on [x1] = 2, on [x0] = 1 *)
  let f = Cnf.of_clauses ~nvars:2 [ [ Lit.pos 0 ] ] in
  check_int "project on constrained var" 1 (Cnf.count_projected_models f [ 0 ]);
  check_int "project on free var" 2 (Cnf.count_projected_models f [ 1 ])

(* --- Dimacs -------------------------------------------------------------- *)

let test_dimacs_parse () =
  let f = Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n3 0\n" in
  check_int "nvars" 3 f.Cnf.nvars;
  check_int "nclauses" 2 (Cnf.nclauses f);
  check_bool "eval" true (Cnf.eval f [| true; false; true |])

let test_dimacs_errors () =
  let fails_at expect_line s =
    match Dimacs.parse_string s with
    | exception Dimacs.Parse_error { line; _ } ->
      check_int ("error line for " ^ String.escaped s) expect_line line
    | _ -> Alcotest.fail ("expected parse failure on " ^ s)
  in
  fails_at 2 "p cnf 2 1\n1 2";           (* unterminated clause *)
  fails_at 1 "p cnf x 1\n1 0\n";          (* bad var count *)
  fails_at 1 "p cnf 2 z\n1 0\n";          (* bad clause count *)
  fails_at 2 "p cnf 2 1\np cnf 2 1\n1 0"; (* duplicate header *)
  fails_at 1 "hello 0";                    (* junk token *)
  fails_at 1 "p qbf 2 1\n1 0";            (* malformed header *)
  (* Clause spanning lines: the error points at the clause's first line. *)
  fails_at 2 "p cnf 3 1\n1 2\n3\n";
  (* A 'c p show' line with a negative variable is located too. *)
  fails_at 3 "p cnf 2 1\n1 0\nc p show -1 0\n";
  (* The header binds: a variable above it at the literal's line, a
     clause count other than the header's at the header line, a show
     variable above it at the show line (even before the header). *)
  fails_at 2 "p cnf 2 1\n1 7 0\n";
  fails_at 3 "p cnf 6 2\n1 -2 0\n-1 40 0\n";
  fails_at 1 "p cnf 2 1\n1 2 0\n-1 0\n";
  fails_at 2 "c x\np cnf 2 3\n1 2 0\n";
  fails_at 1 "c p show 3 0\np cnf 2 1\n1 0\n";
  fails_at 3 "p cnf 2 1\n1 0\nc p show 1 5 0\n"

let test_dimacs_error_message () =
  match Dimacs.parse_string "p cnf 2 1\n1 two 0\n" with
  | exception Dimacs.Parse_error { line; msg } ->
    check_int "line" 2 line;
    check_bool "message mentions token" true (Helpers.contains msg "two")
  | _ -> Alcotest.fail "expected parse failure"

let test_dimacs_projection () =
  let src = "c p show 1 3 0\np cnf 4 1\n1 2 0\nc p show 4 0\n" in
  let f, proj = Dimacs.parse_string_projected src in
  check_int "nvars" 4 f.Cnf.nvars;
  Alcotest.(check (option (list int))) "projection (0-based, both lines)"
    (Some [ 0; 2; 3 ]) proj;
  let _, none = Dimacs.parse_string_projected "p cnf 1 1\n1 0\n" in
  check_bool "no show line" true (none = None);
  (* Without a header nothing bounds the input. *)
  let f = Dimacs.parse_string "1 7 0\n-2 0\n" in
  check_int "header-less nvars" 7 f.Cnf.nvars;
  check_int "header-less nclauses" 2 (Cnf.nclauses f)

let dimacs_roundtrip =
  Helpers.qtest "dimacs roundtrip" ~count:50 QCheck.(int_range 0 1000) (fun seed ->
      let rng = R.create ~seed in
      let f = Helpers.random_cnf rng ~nvars:(1 + R.int rng 8) ~nclauses:(R.int rng 10) ~max_len:3 in
      let f' = Dimacs.parse_string (Dimacs.to_string f) in
      Dimacs.to_string f' = Dimacs.to_string f)

(* --- Solver: crafted instances ------------------------------------------ *)

let solver_of cnf =
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  s

let test_solver_trivial () =
  let s = Solver.create () in
  Alcotest.check sat "empty problem" Solver.Sat (Solver.solve s);
  let s = solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ] ]) in
  Alcotest.check sat "unit" Solver.Sat (Solver.solve s);
  check_bool "model respects unit" true (Solver.model_value s 0);
  let s =
    solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ]; [ Lit.neg 0 ] ])
  in
  Alcotest.check sat "contradiction" Solver.Unsat (Solver.solve s);
  check_bool "okay false after root conflict" false (Solver.okay s)

let test_solver_propagation_chain () =
  (* x0, x0->x1, x1->x2, ..., x8->x9, and finally !x9: unsat *)
  let n = 10 in
  let imps =
    List.init (n - 1) (fun i -> [ Lit.neg i; Lit.pos (i + 1) ])
  in
  let f = Cnf.of_clauses ~nvars:n ([ [ Lit.pos 0 ] ] @ imps) in
  let s = solver_of f in
  Alcotest.check sat "chain sat" Solver.Sat (Solver.solve s);
  for v = 0 to n - 1 do
    check_bool (Printf.sprintf "x%d forced" v) true (Solver.model_value s v)
  done;
  ignore (Solver.add_clause s [ Lit.neg (n - 1) ]);
  Alcotest.check sat "chain + negation unsat" Solver.Unsat (Solver.solve s)

let test_solver_tautology_dup () =
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  check_bool "tautology accepted" true
    (Solver.add_clause s [ Lit.pos 0; Lit.neg 0 ]);
  check_int "tautology not stored" 0 (Solver.n_clauses s);
  check_bool "dup literals" true
    (Solver.add_clause s [ Lit.pos 0; Lit.pos 0; Lit.pos 1 ]);
  Alcotest.check sat "sat" Solver.Sat (Solver.solve s)

let test_solver_assumptions () =
  (* f = (x0 | x1) *)
  let f = Cnf.of_clauses ~nvars:2 [ [ Lit.pos 0; Lit.pos 1 ] ] in
  let s = solver_of f in
  Alcotest.check sat "assume x0" Solver.Sat (Solver.solve ~assumptions:[ Lit.pos 0 ] s);
  Alcotest.check sat "assume !x0 !x1" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg 0; Lit.neg 1 ] s);
  (* solver still reusable afterwards *)
  Alcotest.check sat "no assumptions" Solver.Sat (Solver.solve s);
  Alcotest.check sat "assume !x0" Solver.Sat (Solver.solve ~assumptions:[ Lit.neg 0 ] s);
  check_bool "model has x1" true (Solver.model_value s 1);
  (* contradictory assumption list *)
  Alcotest.check sat "assume x0 and !x0" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.neg 0 ] s)

let test_solver_root_value () =
  let f = Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0 ]; [ Lit.neg 0; Lit.neg 1 ] ] in
  let s = solver_of f in
  Alcotest.(check (option bool)) "x0 fixed true" (Some true) (Solver.root_value s 0);
  Alcotest.(check (option bool)) "x1 fixed false" (Some false) (Solver.root_value s 1);
  Alcotest.(check (option bool)) "x2 free" None (Solver.root_value s 2)

let php n m =
  (* pigeonhole: n pigeons, m holes *)
  let var p h = (p * m) + h in
  let cnf = ref (Cnf.of_clauses ~nvars:(n * m) []) in
  for p = 0 to n - 1 do
    cnf := Cnf.add_clause !cnf (List.init m (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        cnf := Cnf.add_clause !cnf [ Lit.neg (var p1 h); Lit.neg (var p2 h) ]
      done
    done
  done;
  !cnf

let test_solver_pigeonhole () =
  Alcotest.check sat "php(6,5) unsat" Solver.Unsat (Solver.solve (solver_of (php 6 5)));
  Alcotest.check sat "php(5,5) sat" Solver.Sat (Solver.solve (solver_of (php 5 5)))

let test_solver_model_error () =
  let s = solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ]; [ Lit.neg 0 ] ]) in
  ignore (Solver.solve s);
  Alcotest.check_raises "model after unsat"
    (Invalid_argument "Solver.model: no model") (fun () -> ignore (Solver.model s))

let test_solver_stats () =
  let s = solver_of (php 6 5) in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check_bool "conflicts counted" true (Ps_util.Stats.get st "conflicts" > 0);
  check_bool "decisions counted" true (Ps_util.Stats.get st "decisions" > 0);
  check_int "solve_calls" 1 (Ps_util.Stats.get st "solve_calls")

(* --- Solver: randomized cross-checks ------------------------------------- *)

let solver_matches_brute_force =
  Helpers.qtest "solver agrees with brute force" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 10 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (3 * nvars)) ~max_len:3 in
      let s = solver_of f in
      let got = Solver.solve s = Solver.Sat in
      let expected = Cnf.brute_force_sat f in
      got = expected
      && (not got
          ||
          let m = Solver.model s in
          let m =
            Array.init nvars (fun i -> if i < Array.length m then m.(i) else false)
          in
          Cnf.eval f m))

let solver_assumptions_sound =
  Helpers.qtest "sat under model-assumptions, unsat under blocked model" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 8 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (2 * nvars)) ~max_len:3 in
      match Cnf.brute_force_models f with
      | [] -> true
      | m :: _ ->
        let s = solver_of f in
        let assumptions = List.init nvars (fun v -> Lit.make v m.(v)) in
        Solver.solve ~assumptions s = Solver.Sat
        &&
        (* blocking that model and assuming it again must be unsat *)
        let block = List.init nvars (fun v -> Lit.make v (not m.(v))) in
        ignore (Solver.add_clause s block);
        Solver.solve ~assumptions s = Solver.Unsat)

let solver_incremental_enumeration =
  Helpers.qtest "blocking-clause enumeration counts all models" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 7 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 10) ~max_len:3 in
      let expected = List.length (Cnf.brute_force_models f) in
      let s = solver_of f in
      let count = ref 0 in
      let continue = ref true in
      while !continue do
        match Solver.solve s with
        | Solver.Unsat | Solver.Unknown -> continue := false
        | Solver.Sat ->
          incr count;
          let block =
            List.init nvars (fun v -> Lit.make v (not (Solver.model_value s v)))
          in
          if not (Solver.add_clause s block) then continue := false
      done;
      !count = expected)

(* --- Solver: retractable clause groups ----------------------------------- *)

let test_group_lifecycle () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a; Lit.pos b ]);
  let g = Solver.new_group s in
  ignore (Solver.add_grouped s g [ Lit.neg a ]);
  ignore (Solver.add_grouped s g [ Lit.neg b ]);
  check_int "two stored clauses" 2 (Solver.group_clauses s g);
  check_bool "live" true (Solver.group_is_live s g);
  check_int "groups_live" 1 (Solver.groups_live s);
  (* inert without the activation assumption *)
  Alcotest.check sat "inactive group" Solver.Sat (Solver.solve s);
  (* active: (a|b) & !a & !b *)
  Alcotest.check sat "active group" Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.group_lit s g ] s);
  (* still inert again afterwards *)
  Alcotest.check sat "inactive again" Solver.Sat (Solver.solve s);
  Solver.retire_group s g;
  check_bool "retired" false (Solver.group_is_live s g);
  check_int "no stored clauses" 0 (Solver.group_clauses s g);
  check_int "groups_retired" 1 (Solver.groups_retired s);
  Alcotest.check sat "solvable after retire" Solver.Sat (Solver.solve s);
  (match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants after retire: %s" msg);
  Alcotest.check_raises "add to retired group"
    (Invalid_argument "Solver.add_grouped: retired or unknown group")
    (fun () -> ignore (Solver.add_grouped s g [ Lit.pos a ]));
  Alcotest.check_raises "retire twice"
    (Invalid_argument "Solver.retire_group: retired or unknown group")
    (fun () -> Solver.retire_group s g)

let test_group_learnts_survive () =
  (* php(6,5) inside a group: activating it forces real conflict
     learning; retiring it must keep every learnt clause (counted by
     learnts_kept) and leave the solver satisfiable. *)
  let f = php 6 5 in
  let s = Solver.create () in
  Solver.ensure_vars s f.Cnf.nvars;
  let g = Solver.new_group s in
  List.iter
    (fun c -> ignore (Solver.add_grouped s g (Array.to_list c)))
    f.Cnf.clauses;
  Alcotest.check sat "php active: unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.group_lit s g ] s);
  let learnts = Solver.n_learnts s in
  check_bool "conflicts learned something" true (learnts > 0);
  Solver.retire_group s g;
  check_int "learnts_kept counts them" learnts (Solver.learnts_kept s);
  check_bool "learnts still live" true (Solver.n_learnts s > 0);
  Alcotest.check sat "sat after retire" Solver.Sat (Solver.solve s);
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants: %s" msg

let test_group_arena_reclaim () =
  (* Retired groups are garbage: enough retired words must trip the
     arena's own 20% trigger and be reclaimed by compaction. *)
  let s = Solver.create () in
  let v = Array.init 40 (fun _ -> Solver.new_var s) in
  for round = 0 to 19 do
    let g = Solver.new_group s in
    for i = 0 to 38 do
      ignore
        (Solver.add_grouped s g
           [ Lit.make v.(i) (round land 1 = 0); Lit.pos v.(i + 1) ])
    done;
    ignore (Solver.solve ~assumptions:[ Solver.group_lit s g ] s);
    Solver.retire_group s g
  done;
  let st = Solver.stats s in
  check_bool "arena collected" true (Ps_util.Stats.get st "arena_gcs" > 0);
  check_bool "words reclaimed" true
    (Ps_util.Stats.get st "arena_gc_words" > 0);
  check_int "all groups retired" 20 (Solver.groups_retired s);
  check_int "none live" 0 (Solver.groups_live s);
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants: %s" msg

let test_group_degenerate_unit () =
  (* A grouped clause whose literals are all root-false degenerates to
     the unit !g: the group is permanently deactivated. *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a ]);
  let g = Solver.new_group s in
  ignore (Solver.add_grouped s g [ Lit.neg a ]);
  Alcotest.check sat "activation now impossible" Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.group_lit s g ] s);
  Alcotest.check sat "but the solver itself is fine" Solver.Sat
    (Solver.solve s)

(* --- Solver: unsat cores -------------------------------------------------- *)

let test_unsat_core_minimal () =
  (* (!a | !b) under assumptions [a; b]: both are needed, so the core
     must be exactly {a, b}. *)
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.neg 1 ]);
  let a = Lit.pos 0 and b = Lit.pos 1 in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions:[ a; b ] s);
  let core = List.sort compare (Solver.unsat_core s) in
  Alcotest.(check (list int)) "exact minimal core" [ a; b ] core

let test_unsat_core_nonminimal () =
  (* a -> b, !b: assumption a alone refutes, and assumption b alone
     refutes. The contract only promises a refuting subset — check
     that, not minimality. *)
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.pos 1 ]);
  ignore (Solver.add_clause s [ Lit.neg 1 ]);
  let assumptions = [ Lit.pos 0; Lit.pos 1 ] in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions s);
  let core = Solver.unsat_core s in
  check_bool "nonempty" true (core <> []);
  check_bool "subset of assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.check sat "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:core s)

let test_unsat_core_contradictory () =
  (* Assumptions [~a; b; a] contradict each other on a alone: the core
     is exactly {~a, a}, and it refutes on its own. *)
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  let a = Lit.pos 0 and b = Lit.pos 1 in
  Alcotest.check sat "unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.negate a; b; a ] s);
  let core = List.sort compare (Solver.unsat_core s) in
  Alcotest.(check (list int))
    "both polarities" (List.sort compare [ Lit.negate a; a ]) core;
  Alcotest.check sat "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:core s)

let test_unsat_core_under_groups () =
  (* The refuting constraint lives in a group: the core must name the
     activation literal (the culprit), not the irrelevant assumption. *)
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a ]);
  let g = Solver.new_group s in
  ignore (Solver.add_grouped s g [ Lit.neg a ]);
  let assumptions = [ Solver.group_lit s g; Lit.pos x ] in
  Alcotest.check sat "unsat with group active" Solver.Unsat
    (Solver.solve ~assumptions s);
  let core = Solver.unsat_core s in
  check_bool "names the group" true
    (List.mem (Solver.group_lit s g) core);
  check_bool "not the bystander" true (not (List.mem (Lit.pos x) core));
  Alcotest.check sat "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:core s)

let test_unsat_core_across_gc () =
  (* A core stays usable after an arena collection: compaction moves
     clauses, and the relocated clause set must still refute it. *)
  let s = Solver.create () in
  Solver.ensure_vars s 8;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.neg 1 ]);
  (* filler clauses, then learnt-DB churn, to give the collector work *)
  for i = 2 to 6 do
    ignore (Solver.add_clause s [ Lit.pos i; Lit.pos (i + 1); Lit.neg 0 ])
  done;
  let assumptions = [ Lit.pos 0; Lit.pos 1 ] in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions s);
  let core = Solver.unsat_core s in
  Solver.dbg_reduce_db s;
  Solver.dbg_gc s;
  check_bool "gc happened" true (Solver.arena_gcs s >= 1);
  check_bool "subset survives" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.check sat "core refutes after gc" Solver.Unsat
    (Solver.solve ~assumptions:core s);
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants after gc: %s" msg

let group_enumeration_matches_plain =
  Helpers.qtest "grouped constraint = plain constraint (model sets)" ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Enumerate models of F ∧ C with C as plain clauses on one solver
         and as an activated group on another; the model sets must match,
         and after retiring the group the second solver must enumerate
         plain F again. *)
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 6 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 10) ~max_len:3 in
      let c =
        List.init
          (1 + R.int rng 2)
          (fun _ ->
            List.init
              (1 + R.int rng 2)
              (fun _ -> Lit.make (R.int rng nvars) (R.bool rng)))
      in
      let enumerate s assumptions =
        (* non-destructive model collection: probe every total assignment
           with full-model assumptions on top of [assumptions] *)
        let models = ref [] in
        Helpers.iter_assignments nvars (fun m ->
            let a = List.init nvars (fun v -> Lit.make v m.(v)) in
            if Solver.solve ~assumptions:(assumptions @ a) s = Solver.Sat then
              models := Array.to_list m :: !models);
        List.rev !models
      in
      let plain = Solver.create () in
      ignore (Solver.load plain f);
      List.iter (fun cl -> ignore (Solver.add_clause plain cl)) c;
      let grouped = Solver.create () in
      ignore (Solver.load grouped f);
      let g = Solver.new_group grouped in
      List.iter (fun cl -> ignore (Solver.add_grouped grouped g cl)) c;
      let with_group =
        enumerate grouped [ Solver.group_lit grouped g ] = enumerate plain []
      in
      Solver.retire_group grouped g;
      let after_retire =
        let bare = Solver.create () in
        ignore (Solver.load bare f);
        enumerate grouped [] = enumerate bare []
      in
      with_group && after_retire)

let test_unsat_core_basic () =
  (* F = (!a | !b); assumptions a, b, c: core must avoid c *)
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.neg 1 ]);
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 in
  Alcotest.(check bool) "unsat" true
    (Solver.solve ~assumptions:[ a; b; c ] s = Solver.Unsat);
  let core = Solver.unsat_core s in
  check_bool "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l [ a; b; c ]) core);
  check_bool "c not needed" true (not (List.mem c core));
  (* the core itself is unsatisfying *)
  Alcotest.(check bool) "core refutes" true
    (Solver.solve ~assumptions:core s = Solver.Unsat)

let unsat_core_sound =
  Helpers.qtest "unsat cores are subsets that still refute" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 7 in
      let cnf = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 14) ~max_len:3 in
      let s = Solver.create () in
      if not (Solver.load s cnf) then true
      else begin
        let assumptions =
          List.init nvars (fun v -> Lit.make v (R.bool rng))
        in
        match Solver.solve ~assumptions s with
        | Solver.Sat -> true
        | Solver.Unknown -> false
        | Solver.Unsat ->
          let core = Solver.unsat_core s in
          List.for_all (fun l -> List.mem l assumptions) core
          && Solver.solve ~assumptions:core s = Solver.Unsat
      end)

(* --- Solver: projected enumeration by chronological backtracking ---------- *)

module Budget = Ps_util.Budget

(* Every report of [Solver.enumerate_projected], in order, and the result. *)
let enum_reports ?budget ?(on_report = fun _ -> ()) s proj =
  let reports = ref [] in
  let r =
    Solver.enumerate_projected ?budget s proj (fun bits _mask ->
        reports := Array.copy bits :: !reports;
        on_report (List.length !reports);
        true)
  in
  (r, List.rev !reports)

let projected_models f proj =
  List.sort_uniq compare
    (List.map (fun m -> Array.map (fun v -> m.(v)) proj) (Cnf.brute_force_models f))

let distinct xs = List.length (List.sort_uniq compare xs) = List.length xs

(* Conflict-heavy: a random 3-CNF near the satisfiability threshold,
   projected onto a third of its variables. *)
let hard_instance seed =
  let rng = R.create ~seed in
  let nvars = 60 in
  let clauses =
    List.init 240 (fun _ ->
        List.init 3 (fun _ -> Lit.make (R.int rng nvars) (R.bool rng)))
  in
  (Cnf.of_clauses ~nvars clauses, Array.init 20 (fun i -> 3 * i))

let enumeration_matches_brute_force =
  Helpers.qtest "projected enumeration = brute force, solver unchanged" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 10 in
      let f =
        Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (4 * nvars)) ~max_len:3
      in
      let proj = Array.init (R.int rng (nvars + 1)) (fun _ -> R.int rng nvars) in
      let s = solver_of f in
      let r, reports = enum_reports s proj in
      let expected = projected_models f proj in
      r = Solver.Unsat
      && distinct reports
      && List.sort compare reports = expected
      && Solver.check_watches s = Ok ()
      && (Solver.solve s = Solver.Sat) = (expected <> []))

let test_enum_reduce_and_gc () =
  let f, proj = hard_instance 7 in
  let expected =
    let r, reports = enum_reports (solver_of f) proj in
    check_bool "reference run complete" true (r = Solver.Unsat);
    List.sort compare reports
  in
  check_bool "premise: many models" true (List.length expected > 20);
  let s = solver_of f in
  let before = Solver.stats s in
  let r, reports =
    enum_reports s proj ~on_report:(fun n ->
        if n mod 5 = 0 then Solver.dbg_reduce_db s;
        if n mod 9 = 0 then Solver.dbg_gc s)
  in
  let after = Solver.stats s in
  let grew k = Ps_util.Stats.get after k > Ps_util.Stats.get before k in
  check_bool "reduce_db ran" true (grew "reduce_dbs");
  check_bool "arena gc ran" true (grew "arena_gcs");
  check_bool "learnt clauses" true (Solver.n_learnts s > 0);
  check_bool "complete" true (r = Solver.Unsat);
  check_bool "same models" true (List.sort compare reports = expected);
  check_bool "no model twice" true (distinct reports);
  check_bool "watches intact" true (Solver.check_watches s = Ok ());
  check_int "chrono_cubes" (List.length reports)
    (Ps_util.Stats.get after "chrono_cubes")

let test_enum_width_zero () =
  let f = Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 2 ] ] in
  let r, reports = enum_reports (solver_of f) [||] in
  check_bool "complete" true (r = Solver.Unsat);
  check_bool "one empty assignment" true (reports = [ [||] ]);
  let unsat =
    Cnf.of_clauses ~nvars:2
      [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 0 ]; [ Lit.neg 1 ] ]
  in
  let r, reports = enum_reports (solver_of unsat) [||] in
  check_bool "unsat: complete" true (r = Solver.Unsat);
  check_int "unsat: nothing reported" 0 (List.length reports)

let test_enum_root_fixed_and_duplicates () =
  (* x0 fixed true at the root; x1 free; x2 = x3 *)
  let f =
    Cnf.of_clauses ~nvars:4
      [ [ Lit.pos 0 ]; [ Lit.neg 2; Lit.pos 3 ]; [ Lit.pos 2; Lit.neg 3 ] ]
  in
  let proj = [| 1; 0; 1; 2; 0; 3 |] in
  let r, reports = enum_reports (solver_of f) proj in
  check_bool "complete" true (r = Solver.Unsat);
  check_bool "brute force" true
    (List.sort compare reports = projected_models f proj);
  check_int "x1 and x2 free: four assignments" 4 (List.length reports);
  List.iter
    (fun b ->
      check_bool "duplicates agree" true (b.(0) = b.(2) && b.(1) = b.(4));
      check_bool "root-fixed value" true b.(1);
      check_bool "implied value" true (b.(3) = b.(5)))
    reports

(* Reference: one unbudgeted enumeration (checked against brute force by
   the property above). *)
let all_reports f proj = snd (enum_reports (solver_of f) proj)

let test_enum_conflict_limit_deterministic () =
  let f, proj = hard_instance 14 in
  let run () =
    let budget = Budget.make ~conflicts:100 () in
    let s = solver_of f in
    let r, reports = enum_reports ~budget s proj in
    (r, reports, Ps_util.Stats.get (Solver.stats s) "decisions")
  in
  let r1, reports1, d1 = run () in
  let r2, reports2, d2 = run () in
  check_bool "stopped on the budget" true (r1 = Solver.Unknown);
  check_bool "premise: partial" true
    (List.length reports1 < List.length (all_reports f proj));
  check_bool "same result" true (r2 = r1);
  check_bool "same reports, same order" true (reports1 = reports2);
  check_int "same decisions" d1 d2

let test_enum_interrupted_partial () =
  (* Cancellation: the flag trips at the 10th model; the stop comes at
     the next poll and what came before is sound and disjoint. *)
  let f, proj = hard_instance 7 in
  let all = all_reports f proj in
  let flag = Budget.cancel_flag () in
  let budget = Budget.make ~cancel_with:flag () in
  let s = solver_of f in
  let r, reports =
    enum_reports ~budget s proj ~on_report:(fun n ->
        if n = 10 then Budget.cancel flag)
  in
  check_bool "cancelled" true (r = Solver.Unknown);
  check_bool "budget records it" true (Budget.stopped budget = Some `Cancelled);
  check_bool "partial" true
    (List.length reports >= 10 && List.length reports < List.length all);
  check_bool "sound" true (List.for_all (fun b -> List.mem b all) reports);
  check_bool "disjoint" true (distinct reports);
  check_bool "solver usable" true (Solver.solve s = Solver.Sat);
  (* Deadline: 2^22 models of a formula over 24 variables cannot all be
     reported in 50 ms. *)
  let nvars = 24 in
  let f =
    Cnf.of_clauses ~nvars
      [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 1; Lit.pos 2 ]; [ Lit.neg 0; Lit.neg 2 ] ]
  in
  let proj = Array.init nvars (fun v -> v) in
  let budget = Budget.make ~timeout_s:0.05 () in
  let t0 = Unix.gettimeofday () in
  let r, reports = enum_reports ~budget (solver_of f) proj in
  check_bool "deadline" true (r = Solver.Unknown && Budget.stopped budget = Some `Deadline);
  check_bool "prompt" true (Unix.gettimeofday () -. t0 < 2.0);
  check_bool "some models" true (reports <> []);
  check_bool "every report is a model" true (List.for_all (Cnf.eval f) reports);
  check_bool "deadline: disjoint" true (distinct reports)

(* --- Solver: shrinking each model to a cube -------------------------------- *)

module Cube = Ps_allsat.Cube

(* Every cube of [Solver.enumerate_projected ~shrink], in order, and the
   result; the callback returns [false] at the [stop_at]-th cube. *)
let shrink_reports ?budget ?(on_report = fun _ -> ()) ?stop_at ~shrink s proj =
  let cubes = ref [] in
  let r =
    Solver.enumerate_projected ?budget ~shrink s proj (fun bits mask ->
        cubes := Cube.of_masked_assignment bits mask :: !cubes;
        let n = List.length !cubes in
        on_report n;
        stop_at <> Some n)
  in
  (r, List.rev !cubes)

let rec pairwise_disjoint = function
  | [] -> true
  | c :: rest ->
    List.for_all (fun d -> not (Cube.intersects c d)) rest
    && pairwise_disjoint rest

(* Every minterm of every cube is one of [reports] (bit arrays). *)
let cubes_within reports cubes =
  let tbl = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace tbl b ()) reports;
  List.for_all
    (fun c ->
      let ok = ref true in
      Cube.iter_minterms c (fun b -> if not (Hashtbl.mem tbl b) then ok := false);
      !ok)
    cubes

let minterms cubes =
  List.fold_left (fun n c -> n +. Cube.minterm_count c) 0.0 cubes

let test_shrink_to_nothing () =
  (* x0 fixed and x3 implied false at the root; x1 and x2 unconstrained *)
  let f = Cnf.of_clauses ~nvars:4 [ [ Lit.pos 0 ]; [ Lit.neg 0; Lit.neg 3 ] ] in
  let r, cubes =
    shrink_reports (solver_of f) [| 0; 1; 2; 3 |] ~shrink:(fun _ ->
        Array.make 4 false)
  in
  Alcotest.check sat "complete" Solver.Unsat r;
  check_bool "one cube of root literals" true
    (List.map Cube.to_string cubes = [ "1--0" ])

(* After a flip, the floor's decisions must stay fixed in every later
   cube, even when the shrink needs none of them: cutting any lower
   would reach back into a subtree that earlier cubes covered. *)
let test_shrink_keeps_floor () =
  let f =
    Cnf.of_clauses ~nvars:4
      [ [ Lit.pos 0; Lit.pos 1; Lit.pos 2; Lit.pos 3 ] ]
  in
  let calls = ref 0 in
  let shrink _ =
    incr calls;
    if !calls = 1 then [| true; true; true |] else [| true; false; false |]
  in
  let r, cubes = shrink_reports (solver_of f) [| 0; 1; 2 |] ~shrink in
  Alcotest.check sat "complete" Solver.Unsat r;
  check_bool "premise: a later cube is lifted" true
    (List.exists (fun c -> Cube.num_free c > 0) cubes);
  check_bool "disjoint" true (pairwise_disjoint cubes);
  check_bool "cover all eight" true (minterms cubes = 8.0)

let test_shrink_partial () =
  let f, proj = hard_instance 7 in
  let reference = all_reports f proj in
  let shrink = Ps_allsat.Cnf_lift.make f (Ps_allsat.Project.of_vars proj) in
  let r, all = shrink_reports (solver_of f) proj ~shrink in
  Alcotest.check sat "complete" Solver.Unsat r;
  check_bool "premise: lifted cubes" true
    (List.exists (fun c -> Cube.num_free c > 0) all);
  check_bool "sound" true (cubes_within reference all);
  check_bool "disjoint" true (pairwise_disjoint all);
  check_bool "cover" true (minterms all = float_of_int (List.length reference));
  (* the callback stops the run *)
  let r, cubes = shrink_reports (solver_of f) proj ~shrink ~stop_at:3 in
  Alcotest.check sat "limit: Sat" Solver.Sat r;
  check_bool "limit: the first three cubes" true
    (cubes = List.filteri (fun i _ -> i < 3) all);
  (* a tripped budget stops it *)
  let flag = Budget.cancel_flag () in
  let budget = Budget.make ~cancel_with:flag () in
  let s = solver_of f in
  let r, cubes =
    shrink_reports ~budget s proj ~shrink ~on_report:(fun n ->
        if n = 3 then Budget.cancel flag)
  in
  Alcotest.check sat "budget: Unknown" Solver.Unknown r;
  check_bool "budget: partial" true
    (List.length cubes >= 3 && List.length cubes < List.length all);
  check_bool "budget: sound" true (cubes_within reference cubes);
  check_bool "budget: disjoint" true (pairwise_disjoint cubes);
  check_bool "budget: solver usable" true (Solver.solve s = Solver.Sat)

let all_true_shrink_is_no_shrink =
  Helpers.qtest "all-true shrink = no shrink" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 10 in
      let f =
        Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (4 * nvars)) ~max_len:3
      in
      let proj = Array.init (R.int rng (nvars + 1)) (fun _ -> R.int rng nvars) in
      let r, reports = enum_reports (solver_of f) proj in
      let r', cubes =
        shrink_reports (solver_of f) proj ~shrink:(fun _ ->
            Array.make (Array.length proj) true)
      in
      r = r'
      && List.sort Cube.compare (List.map Cube.of_assignment reports)
         = List.sort Cube.compare cubes)

(* --- Solver: trail reuse across solve calls ------------------------------ *)

(* [solve] keeps the decision levels of the assumptions a call shares
   with the previous call. Every answer must still be the one a fresh
   solver gives on the same clauses. *)

let trail_cases = if Sys.getenv_opt "PS_DIFF_LONG" <> None then 2000 else 200

let random_lit rng nvars = Lit.make (R.int rng nvars) (R.bool rng)

(* A random prefix of [prev], then up to four more literals; some of them
   repeat a kept assumption or its complement. *)
let next_assumptions rng nvars prev =
  let keep = R.int rng (List.length prev + 1) in
  let kept = List.filteri (fun i _ -> i < keep) prev in
  kept
  @ List.init (R.int rng 5) (fun _ ->
        if kept <> [] && R.int rng 3 = 0 then
          let l = R.pick rng kept in
          if R.bool rng then l else Lit.negate l
        else random_lit rng nvars)

(* [s]'s answer under [assumptions] is a fresh solver's answer on [f],
   and its model or core certifies it. *)
let agrees_with_fresh s f assumptions =
  let r = Solver.solve ~assumptions s in
  r = Solver.solve ~assumptions (solver_of f)
  &&
  match r with
  | Solver.Sat ->
    let m = Solver.model s in
    Cnf.eval f m
    && List.for_all (fun l -> m.(Lit.var l) = Lit.sign l) assumptions
  | Solver.Unsat ->
    let core = Solver.unsat_core s in
    List.for_all (fun l -> List.mem l assumptions) core
    && Solver.solve ~assumptions:core (solver_of f) = Solver.Unsat
  | Solver.Unknown -> false

let trail_reuse_matches_fresh =
  Helpers.qtest "trail reuse = fresh solver" ~count:trail_cases
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 6 + R.int rng 7 in
      let clause len = List.init len (fun _ -> random_lit rng nvars) in
      let f =
        ref
          (Cnf.of_clauses ~nvars
             (List.init (nvars + R.int rng (3 * nvars)) (fun _ -> clause 3)))
      in
      let s = solver_of !f in
      let prev = ref [] in
      let ok = ref true in
      for _ = 1 to 30 do
        if !ok then begin
          (match R.int rng 10 with
          | 0 | 1 ->
            let c = clause (2 + R.int rng 2) in
            f := Cnf.add_clause !f c;
            ignore (Solver.add_clause s c)
          | 2 ->
            let proj = Array.init (1 + R.int rng 3) (fun _ -> R.int rng nvars) in
            let _, got = enum_reports s proj in
            let _, want = enum_reports (solver_of !f) proj in
            ok := distinct got && List.sort compare got = List.sort compare want
          | 3 -> ok := agrees_with_fresh s !f []
          | _ ->
            prev := next_assumptions rng nvars !prev;
            ok := agrees_with_fresh s !f !prev);
          ok := !ok && Solver.check_watches s = Ok ()
        end
      done;
      !ok)

(* x ∨ y, ¬x ∨ z: assuming x implies z above the root. Neither may read
   as root-fixed while the solver keeps the assumption's level. *)
let test_trail_root_value () =
  let s =
    solver_of
      (Cnf.of_clauses ~nvars:3
         [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 0; Lit.pos 2 ] ])
  in
  Alcotest.check sat "sat under x" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.pos 0 ] s);
  Alcotest.(check (option bool)) "x not root-fixed" None (Solver.root_value s 0);
  Alcotest.(check (option bool)) "z not root-fixed" None (Solver.root_value s 2)

let test_trail_add_clause () =
  let s = solver_of (Cnf.of_clauses ~nvars:2 [ [ Lit.pos 0; Lit.pos 1 ] ]) in
  let x = Lit.pos 0 in
  Alcotest.check sat "sat under x" Solver.Sat (Solver.solve ~assumptions:[ x ] s);
  check_bool "add ~x" true (Solver.add_clause s [ Lit.negate x ]);
  Alcotest.check sat "unsat under x" Solver.Unsat
    (Solver.solve ~assumptions:[ x ] s);
  Alcotest.(check (list int)) "core" [ x ] (Solver.unsat_core s);
  Alcotest.check sat "sat without assumptions" Solver.Sat (Solver.solve s)

let test_trail_enumerate () =
  let f = Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] ] in
  let s = solver_of f in
  Alcotest.check sat "sat under x, y" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.neg 1 ] s);
  let r, reports = enum_reports s [| 0; 1 |] in
  Alcotest.check sat "exhausted" Solver.Unsat r;
  check_bool "the full projection" true
    (List.sort compare reports = projected_models f [| 0; 1 |]);
  check_int "all four" 4 (List.length reports)

(* A callback that raises still ends the enumeration at the root with
   no floor left, so later calls search from their own assumption
   levels and may backjump to the root. *)
let test_trail_enumerate_raises () =
  let f = Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] ] in
  let s = solver_of f in
  let probes =
    [ [ Lit.neg 0; Lit.neg 1 ]; [ Lit.neg 0; Lit.neg 1; Lit.neg 2 ];
      [ Lit.neg 0; Lit.pos 1 ] ]
  in
  let check_probes name =
    List.iter
      (fun assumptions ->
        let expected =
          List.exists
            (fun m -> List.for_all (fun l -> m.(Lit.var l) = Lit.sign l) assumptions)
            (Cnf.brute_force_models f)
        in
        match Solver.solve ~assumptions s with
        | Solver.Sat ->
          check_bool (name ^ ": sat expected") true expected;
          check_bool (name ^ ": model keeps the assumptions") true
            (List.for_all
               (fun l -> Solver.model_value s (Lit.var l) = Lit.sign l)
               assumptions)
        | Solver.Unsat -> check_bool (name ^ ": unsat expected") false expected
        | Solver.Unknown -> Alcotest.fail "unbudgeted Unknown")
      probes
  in
  check_probes "before";
  let n = ref 0 in
  (match
     Solver.enumerate_projected s [| 2; 1; 0 |] (fun _ _ ->
         incr n;
         if !n = 3 then raise Exit;
         true)
   with
  | _ -> Alcotest.fail "expected the callback's exception"
  | exception Exit -> ());
  check_probes "after";
  (* Fresh variables with one model out of eight: finding it takes
     conflicts just above the root. *)
  let y = Array.init 3 (fun _ -> Solver.new_var s) in
  for code = 0 to 6 do
    ignore
      (Solver.add_clause s
         (List.init 3 (fun i -> Lit.make y.(i) ((code lsr i) land 1 = 0))))
  done;
  Alcotest.check sat "search above the root" Solver.Sat (Solver.solve s);
  check_bool "the one model" true
    (Array.for_all (Solver.model_value s) y);
  check_bool "watches intact" true (Solver.check_watches s = Ok ())

(* Reach_inc's pattern: a frame's group is assumed, retired, and the next
   frame's group assumed in its place. *)
let test_trail_retire_group () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a; Lit.pos b ]);
  let g1 = Solver.new_group s in
  ignore (Solver.add_grouped s g1 [ Lit.neg a ]);
  let l1 = Solver.group_lit s g1 in
  Alcotest.check sat "frame 1" Solver.Sat (Solver.solve ~assumptions:[ l1 ] s);
  check_bool "frame 1 forces b" true (Solver.model_value s b);
  Solver.retire_group s g1;
  let g2 = Solver.new_group s in
  ignore (Solver.add_grouped s g2 [ Lit.neg b ]);
  let l2 = Solver.group_lit s g2 in
  Alcotest.check sat "frame 2" Solver.Sat (Solver.solve ~assumptions:[ l2 ] s);
  check_bool "frame 2 forces a" true (Solver.model_value s a);
  Alcotest.check sat "retired group refuted" Solver.Unsat
    (Solver.solve ~assumptions:[ l1; l2 ] s);
  Alcotest.(check (list int)) "core names the retired group" [ l1 ]
    (Solver.unsat_core s);
  (match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants: %s" msg)

(* An interrupted call, then an unbudgeted one: the latter must answer
   as a fresh solver does, whether the budget ran out in the search or
   was spent on entry. *)
let test_trail_after_unknown () =
  let f, _ = hard_instance 14 in
  let assumptions = List.init 6 (fun i -> Lit.make (7 * i) (i mod 2 = 0)) in
  let s = solver_of f in
  ignore (Solver.solve ~assumptions:(List.filteri (fun i _ -> i < 3) assumptions) s);
  let budget = Budget.make ~conflicts:1 () in
  Alcotest.check sat "stopped on the budget" Solver.Unknown
    (Solver.solve ~assumptions ~budget s);
  Alcotest.check sat "spent budget" Solver.Unknown
    (Solver.solve ~assumptions ~budget s);
  check_bool "then the fresh answer" true (agrees_with_fresh s f assumptions)

let () =
  Alcotest.run "ps_sat"
    [
      ( "lit",
        [
          Alcotest.test_case "encoding" `Quick test_lit_encoding;
          Alcotest.test_case "dimacs" `Quick test_lit_dimacs;
          lit_dimacs_roundtrip;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "brute force" `Quick test_cnf_brute_force;
          Alcotest.test_case "projected count" `Quick test_cnf_projected_count;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "error messages" `Quick test_dimacs_error_message;
          Alcotest.test_case "projection lines" `Quick test_dimacs_projection;
          dimacs_roundtrip;
        ] );
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "propagation chain" `Quick test_solver_propagation_chain;
          Alcotest.test_case "tautology/dup" `Quick test_solver_tautology_dup;
          Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
          Alcotest.test_case "root values" `Quick test_solver_root_value;
          Alcotest.test_case "pigeonhole" `Quick test_solver_pigeonhole;
          Alcotest.test_case "model error" `Quick test_solver_model_error;
          Alcotest.test_case "stats" `Quick test_solver_stats;
          solver_matches_brute_force;
          solver_assumptions_sound;
          solver_incremental_enumeration;
        ] );
      ( "groups",
        [
          Alcotest.test_case "lifecycle" `Quick test_group_lifecycle;
          Alcotest.test_case "learnts survive retirement" `Quick
            test_group_learnts_survive;
          Alcotest.test_case "arena reclaims retired groups" `Quick
            test_group_arena_reclaim;
          Alcotest.test_case "degenerate unit deactivates" `Quick
            test_group_degenerate_unit;
          group_enumeration_matches_plain;
        ] );
      ( "unsat_core",
        [
          Alcotest.test_case "minimal" `Quick test_unsat_core_minimal;
          Alcotest.test_case "non-minimal contract" `Quick
            test_unsat_core_nonminimal;
          Alcotest.test_case "contradictory assumptions" `Quick
            test_unsat_core_contradictory;
          Alcotest.test_case "under activation groups" `Quick
            test_unsat_core_under_groups;
          Alcotest.test_case "stable across arena gc" `Quick
            test_unsat_core_across_gc;
          Alcotest.test_case "basic" `Quick test_unsat_core_basic;
          unsat_core_sound;
        ] );
      ( "enumerate",
        [
          enumeration_matches_brute_force;
          Alcotest.test_case "watches intact after reduce/gc" `Quick
            test_enum_reduce_and_gc;
          Alcotest.test_case "width-0 projection" `Quick test_enum_width_zero;
          Alcotest.test_case "root-fixed and duplicated variables" `Quick
            test_enum_root_fixed_and_duplicates;
          Alcotest.test_case "conflict limit is deterministic" `Quick
            test_enum_conflict_limit_deterministic;
          Alcotest.test_case "cancel/deadline partial is sound" `Quick
            test_enum_interrupted_partial;
          Alcotest.test_case "shrink to root literals" `Quick
            test_shrink_to_nothing;
          Alcotest.test_case "shrink keeps the floor" `Quick
            test_shrink_keeps_floor;
          Alcotest.test_case "shrink: limit and budget partials" `Quick
            test_shrink_partial;
          all_true_shrink_is_no_shrink;
        ] );
      ( "trail",
        [
          trail_reuse_matches_fresh;
          Alcotest.test_case "root_value ignores kept levels" `Quick
            test_trail_root_value;
          Alcotest.test_case "add_clause drops kept levels" `Quick
            test_trail_add_clause;
          Alcotest.test_case "enumerate after assumptions" `Quick
            test_trail_enumerate;
          Alcotest.test_case "solve after a raising enumeration" `Quick
            test_trail_enumerate_raises;
          Alcotest.test_case "retired group, then solve" `Quick
            test_trail_retire_group;
          Alcotest.test_case "unbudgeted after Unknown" `Quick
            test_trail_after_unknown;
        ] );
    ]
