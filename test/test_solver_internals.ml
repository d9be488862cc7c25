(* Deeper solver behaviour: learnt-database reduction, restarts, phase
   saving, incremental reuse across many queries, wide clauses, and the
   interaction between preprocessing and solving. *)

module Lit = Ps_sat.Lit
module Cnf = Ps_sat.Cnf
module Solver = Ps_sat.Solver
module Stats = Ps_util.Stats
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let php n m =
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

let solver_of cnf =
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  s

(* --- restarts and DB reduction ------------------------------------------- *)

let test_restarts_happen () =
  let s = solver_of (php 7 6) in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check_bool "hard instance restarts" true (Stats.get st "restarts" > 0);
  check_bool "learnt clauses recorded" true (Stats.get st "learnt" > 0);
  check_bool "minimization fired" true (Stats.get st "minimized_lits" > 0)

let test_learnts_bounded_under_enumeration () =
  (* enumerate a large model set; learnt DB must not retain everything *)
  let nvars = 10 in
  (* 63 * 2^4 = 1008 projected models *)
  let cnf = Cnf.of_clauses ~nvars [ List.init 6 Lit.pos ] in
  let s = solver_of cnf in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 3000 do
    incr rounds;
    match Solver.solve s with
    | Solver.Unsat | Solver.Unknown -> continue := false
    | Solver.Sat ->
      let block =
        List.init nvars (fun v -> Lit.make v (not (Solver.model_value s v)))
      in
      if not (Solver.add_clause s block) then continue := false
  done;
  check_bool "finished" true (not !continue);
  (* problem clauses grow with blocking; learnt clauses must stay modest *)
  check_bool "learnt DB bounded" true (Solver.n_learnts s < 10_000)

(* --- incremental reuse ------------------------------------------------------ *)

let test_thousand_queries_one_solver () =
  (* the SDS usage pattern: very many assumption probes on one solver *)
  let nvars = 12 in
  let rng = R.create ~seed:31 in
  let cnf = Helpers.random_cnf rng ~nvars ~nclauses:30 ~max_len:3 in
  let s = solver_of cnf in
  let reference = solver_of cnf in
  ignore reference;
  let brute = Cnf.brute_force_models cnf in
  let model_set = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace model_set (Array.to_list m) ()) brute;
  let mismatches = ref 0 in
  for _ = 1 to 1000 do
    let k = R.int rng nvars in
    let assumptions = List.init k (fun v -> Lit.make v (R.bool rng)) in
    let expected =
      Hashtbl.fold
        (fun m () acc ->
          acc
          || List.for_all
               (fun l ->
                 let v = Lit.var l in
                 List.nth m v = Lit.sign l)
               assumptions)
        model_set false
    in
    let got = Solver.solve ~assumptions s = Solver.Sat in
    if got <> expected then incr mismatches
  done;
  check_int "all 1000 probes exact" 0 !mismatches

(* --- phase saving ------------------------------------------------------------ *)

let test_phase_saving_stability () =
  (* a satisfiable instance solved twice yields the same model (phases are
     saved, no randomness) *)
  let rng = R.create ~seed:77 in
  let cnf = Helpers.random_cnf rng ~nvars:10 ~nclauses:20 ~max_len:3 in
  if Cnf.brute_force_sat cnf then begin
    let s = solver_of cnf in
    ignore (Solver.solve s);
    let m1 = Solver.model s in
    ignore (Solver.solve s);
    let m2 = Solver.model s in
    Alcotest.(check (array bool)) "stable model" m1 m2
  end

(* --- wide clauses -------------------------------------------------------------- *)

let test_wide_clauses () =
  (* one 200-literal clause plus binaries forcing all but one literal false *)
  let n = 200 in
  let wide = List.init n Lit.pos in
  let forcing = List.init (n - 1) (fun v -> [ Lit.neg v ]) in
  let cnf = Cnf.of_clauses ~nvars:n (wide :: forcing) in
  let s = solver_of cnf in
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  check_bool "survivor forced true" true (Solver.model_value s (n - 1))

(* --- arena / watcher invariants ----------------------------------------- *)

let check_invariants name s =
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let test_watcher_invariants_after_reduce () =
  (* Drive a hard instance until plenty of clauses are learnt, then force
     reductions and collections and re-check the watcher/arena invariants
     and the solver's answers. *)
  let cnf = php 7 6 in
  let s = solver_of cnf in
  check_invariants "after load" s;
  check_bool "php 7/6 unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  check_bool "learnt something" true (Stats.get st "learnt" > 0);
  Solver.dbg_reduce_db s;
  check_invariants "after reduce_db" s;
  Solver.dbg_gc s;
  check_invariants "after gc" s;
  check_bool "gc counted" true (Solver.arena_gcs s >= 1);
  (* A satisfiable instance: reduce + collect mid-enumeration. *)
  let rng = R.create ~seed:5 in
  let cnf = Helpers.random_cnf rng ~nvars:12 ~nclauses:30 ~max_len:3 in
  let s = solver_of cnf in
  let brute = List.length (Cnf.brute_force_models cnf) in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve s with
    | Solver.Unsat | Solver.Unknown -> continue := false
    | Solver.Sat ->
      incr count;
      let block =
        List.init 12 (fun v -> Lit.make v (not (Solver.model_value s v)))
      in
      if !count mod 50 = 0 then begin
        Solver.dbg_reduce_db s;
        Solver.dbg_gc s;
        check_invariants "mid-enumeration" s
      end;
      if not (Solver.add_clause s block) then continue := false
  done;
  check_invariants "after enumeration" s;
  check_int "enumeration exact across reductions+gcs" brute !count

let test_gc_triggered_by_reduction () =
  (* One reduction frees roughly half the learnt clauses; the resulting
     waste must trip the arena's own collection trigger — no dbg_gc. *)
  let s = solver_of (php 8 7) in
  ignore (Solver.solve s);
  check_bool "learnt a lot" true (Solver.n_learnts s > 1000);
  let words_before = Solver.arena_words s in
  Solver.dbg_reduce_db s;
  let st = Solver.stats s in
  check_bool "clauses deleted" true (Stats.get st "deleted" > 0);
  check_bool "wasted space tripped a collection" true
    (Stats.get st "arena_gcs" > 0);
  check_bool "gc reclaimed words" true (Stats.get st "arena_gc_words" > 0);
  check_bool "arena shrank" true (Solver.arena_words s < words_before);
  check_bool "blockers skipped clause visits" true
    (Stats.get st "blocker_skips" > 0);
  check_invariants "after reduce+auto-gc" s

let test_activity_rescale () =
  (* Push var_inc to the rescale threshold; conflicts must rescale all
     activities without breaking the VSIDS order or the answers. *)
  let s = solver_of (php 6 5) in
  Solver.dbg_set_var_inc s 1e99;
  check_bool "php 6/5 unsat under rescale" true (Solver.solve s = Solver.Unsat);
  check_invariants "after rescale (unsat)" s;
  (* The satisfiable side, on a fresh solver. *)
  let rng = R.create ~seed:11 in
  let cnf = Helpers.random_cnf rng ~nvars:12 ~nclauses:40 ~max_len:3 in
  let s2 = solver_of cnf in
  Solver.dbg_set_var_inc s2 1e99;
  let sat = Solver.solve s2 = Solver.Sat in
  check_bool "agrees with brute force" (Cnf.brute_force_sat cnf) sat;
  if sat then
    check_bool "model satisfies formula" true (Cnf.eval cnf (Solver.model s2));
  check_invariants "after rescale (sat)" s2

let test_unknown_resume_across_gc () =
  (* A budgeted solve stops Unknown with learnt clauses in the arena; a
     forced collection must preserve them; the resumed solve finishes and
     agrees with brute force. *)
  let cnf = php 7 6 in
  let s = solver_of cnf in
  let budget = Ps_util.Budget.make ~conflicts:30 () in
  check_bool "stopped early" true (Solver.solve ~budget s = Solver.Unknown);
  check_bool "kept learnts" true (Solver.n_learnts s > 0);
  let learnts_before = Solver.n_learnts s in
  Solver.dbg_gc s;
  check_invariants "after gc on paused solver" s;
  check_int "gc drops no learnts" learnts_before (Solver.n_learnts s);
  check_bool "resumed to unsat" true (Solver.solve s = Solver.Unsat)

let test_solver_growing_vars () =
  (* variables added between solves are unconstrained and free *)
  let s = Solver.create () in
  ignore (Solver.add_clause s [ Lit.pos 0 ]);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let v = Solver.new_var s in
  Alcotest.(check bool) "still sat" true
    (Solver.solve ~assumptions:[ Lit.pos v ] s = Solver.Sat);
  Alcotest.(check bool) "and with the other phase" true
    (Solver.solve ~assumptions:[ Lit.neg v ] s = Solver.Sat);
  check_int "var count grew" 2 (Solver.nvars s)

let () =
  Alcotest.run "solver_internals"
    [
      ( "dynamics",
        [
          Alcotest.test_case "restarts and learning" `Quick test_restarts_happen;
          Alcotest.test_case "bounded learnt DB" `Quick
            test_learnts_bounded_under_enumeration;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "1000 assumption probes" `Quick
            test_thousand_queries_one_solver;
          Alcotest.test_case "growing variables" `Quick test_solver_growing_vars;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "phase saving" `Quick test_phase_saving_stability;
          Alcotest.test_case "wide clauses" `Quick test_wide_clauses;
        ] );
      ( "arena",
        [
          Alcotest.test_case "watcher invariants across reduce/gc" `Quick
            test_watcher_invariants_after_reduce;
          Alcotest.test_case "automatic gc under learning" `Quick
            test_gc_triggered_by_reduction;
          Alcotest.test_case "activity rescale" `Quick test_activity_rescale;
          Alcotest.test_case "unknown-resume across gc" `Quick
            test_unknown_resume_across_gc;
        ] );
    ]
