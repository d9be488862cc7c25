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

(* --- bulk load ----------------------------------------------------------------- *)

(* [load] and a run of [add_clause] calls, in the formula's order after
   [ensure_vars], must leave the same solver: the same root state, and
   the same search from it. *)
let check_load_is_add_each name cnf =
  let loaded = Solver.create () in
  let ok_load = Solver.load loaded cnf in
  let added = Solver.create () in
  Solver.ensure_vars added cnf.Cnf.nvars;
  let ok_add =
    List.fold_left
      (fun ok c -> Solver.add_clause added (Array.to_list c) && ok)
      true (List.rev cnf.Cnf.clauses)
  in
  let name s = Printf.sprintf "%s: %s" name s in
  check_bool (name "load result") ok_add ok_load;
  check_bool (name "okay") (Solver.okay added) (Solver.okay loaded);
  check_int (name "nvars") (Solver.nvars added) (Solver.nvars loaded);
  check_int (name "n_clauses") (Solver.n_clauses added) (Solver.n_clauses loaded);
  for v = 0 to Solver.nvars added - 1 do
    Alcotest.(check (option bool))
      (name (Printf.sprintf "root value of %d" v))
      (Solver.root_value added v) (Solver.root_value loaded v)
  done;
  let n = Solver.nvars added in
  List.iter
    (fun assumptions ->
      let assumptions = List.filter (fun l -> Lit.var l < n) assumptions in
      let r_add = Solver.solve ~assumptions added in
      let r_load = Solver.solve ~assumptions loaded in
      check_bool (name "same answer") true (r_add = r_load);
      if r_add = Solver.Sat then
        Alcotest.(check (array bool)) (name "same model") (Solver.model added)
          (Solver.model loaded);
      let st_add = Solver.stats added and st_load = Solver.stats loaded in
      List.iter
        (fun k -> check_int (name k) (Stats.get st_add k) (Stats.get st_load k))
        [ "conflicts"; "decisions"; "propagations" ])
    [ []; [ Lit.pos 0 ]; [ Lit.neg 1; Lit.pos 2 ]; [ Lit.neg 0; Lit.neg 3 ] ]

(* Clause arrays in the order given; [nvars] as declared, even when a
   literal lies past it. *)
let cnf_of ~nvars clauses = { Cnf.nvars; clauses = List.rev clauses }

let test_load_is_add_each () =
  let p = Lit.pos and n = Lit.neg in
  check_load_is_add_each "duplicates, tautologies, root-true and root-false"
    (cnf_of ~nvars:6
       [
         [| p 0; p 0; n 1 |];
         [| n 1; p 2; n 1; p 2 |];
         [| p 4; n 0; n 4; p 1 |];
         [| p 3 |];
         [| p 3; p 4 |];
         [| n 3; p 4; p 5 |];
         [| n 3; p 5; n 3 |];
         [| n 5; p 1; p 2 |];
         [| p 7; n 2 |];
       ]);
  check_load_is_add_each "conflicting units mid-load"
    (cnf_of ~nvars:5
       [ [| p 0; p 1 |]; [| p 2 |]; [| n 2 |]; [| p 3; n 9 |]; [| p 12 |] ]);
  check_load_is_add_each "conflict by propagation"
    (cnf_of ~nvars:4
       [ [| n 0; p 1 |]; [| n 1; p 2 |]; [| n 2 |]; [| p 0 |]; [| p 6; p 3 |] ]);
  check_load_is_add_each "empty clause"
    (cnf_of ~nvars:3 [ [| p 0; n 1 |]; [||]; [| p 1; p 2 |]; [| p 5 |] ]);
  check_load_is_add_each "literals past nvars"
    (cnf_of ~nvars:2 [ [| p 0; n 3 |]; [| n 5; p 1; p 5 |]; [| p 4 |] ]);
  check_load_is_add_each "empty formula" (cnf_of ~nvars:4 [])

(* Random 3-CNFs with a duplicate literal, a tautology or a unit clause
   injected after some clauses. *)
let prop_load_is_add_each seed =
  let rng = R.create ~seed in
  let nvars = 6 + R.int rng 20 in
  let base =
    Helpers.random_3cnf ~seed ~nvars ~nclauses:(nvars * (2 + R.int rng 3))
  in
  let clauses =
    List.concat_map
      (fun c ->
        match R.int rng 6 with
        | 0 -> [ Array.append c [| c.(0) |] ]
        | 1 -> [ Array.append c [| Lit.negate c.(1) |] ]
        | 2 -> [ c; [| c.(2) |] ]
        | _ -> [ c ])
      (List.rev base.Cnf.clauses)
  in
  check_load_is_add_each (Printf.sprintf "seed %d" seed)
    (cnf_of ~nvars:base.Cnf.nvars clauses);
  true

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

(* --- pinned search trajectory -------------------------------------------- *)

(* Exact counters, models, cores and cubes of fixed seeded runs. The
   search is deterministic, so any change to the CDCL loop's decisions,
   restarts or learnt-DB reductions shows here first. *)

let trajectory s =
  let st = Solver.stats s in
  List.map (Stats.get st)
    [ "decisions"; "conflicts"; "propagations"; "restarts"; "reduce_dbs"; "learnt" ]

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')
let digest text = Digest.to_hex (Digest.string text)

let check_run name ~stats ~transcript s text =
  Alcotest.(check (list int)) (name ^ ": stats") stats (trajectory s);
  Alcotest.(check string) (name ^ ": transcript") transcript (digest text)

let test_trajectory_solve () =
  List.iter
    (fun (seed, answer, stats, transcript) ->
      let s = solver_of (Helpers.random_3cnf ~seed ~nvars:200 ~nclauses:852) in
      let text =
        match Solver.solve s with
        | Solver.Sat -> "sat " ^ bits (Solver.model s)
        | Solver.Unsat -> "unsat"
        | Solver.Unknown -> "unknown"
      in
      let name = Printf.sprintf "seed %d" seed in
      Alcotest.(check string) name answer (List.hd (String.split_on_char ' ' text));
      check_run name ~stats ~transcript s text)
    [
      (1, "sat", [ 7239; 5851; 227180; 37; 0; 5851 ], "1125ae463e11932d557f8e322d8b3fed");
      (2, "unsat", [ 12337; 10013; 380727; 61; 0; 10012 ], "ab76ca464eefa1865434cd026016aa8e");
    ]

(* Each call keeps a random prefix of the previous assumptions (trail
   reuse) and appends up to eleven fresh literals; the learnt DB
   outgrows its cap between restarts. *)
let test_trajectory_assumptions () =
  let s = solver_of (Helpers.random_3cnf ~seed:3 ~nvars:150 ~nclauses:540) in
  let rng = R.create ~seed:4 in
  let text = Buffer.create 4096 in
  let answers = Array.make 2 0 in
  let prev = ref [] in
  for _ = 1 to 600 do
    let keep = R.int rng (List.length !prev + 1) in
    let assumptions =
      List.filteri (fun i _ -> i < keep) !prev
      @ List.init (R.int rng 12) (fun _ -> Lit.make (R.int rng 150) (R.bool rng))
    in
    prev := assumptions;
    (match Solver.solve ~assumptions s with
    | Solver.Sat ->
      answers.(0) <- answers.(0) + 1;
      Buffer.add_string text ("S" ^ bits (Solver.model s))
    | Solver.Unsat ->
      answers.(1) <- answers.(1) + 1;
      Buffer.add_string text "U";
      List.iter
        (fun l -> Buffer.add_string text (string_of_int (Lit.to_dimacs l) ^ ","))
        (Solver.unsat_core s)
    | Solver.Unknown -> Buffer.add_string text "?");
    Buffer.add_char text '\n'
  done;
  Alcotest.(check (array int)) "sat / unsat answers" [| 391; 209 |] answers;
  check_run "assumptions" s (Buffer.contents text)
    ~stats:[ 19239; 5927; 252758; 13; 3; 5927 ]
    ~transcript:"596d6b062726210707b2284847e21fcc"

let test_trajectory_enumerate () =
  let f = Helpers.random_3cnf ~seed:5 ~nvars:90 ~nclauses:330 in
  let proj = Array.init 22 (fun i -> 4 * i) in
  let run name ?shrink ~stats ~transcript () =
    let s = solver_of f in
    let text = Buffer.create 4096 in
    let r =
      Solver.enumerate_projected ?shrink s proj (fun b mask ->
          Buffer.add_string text
            (Ps_allsat.Cube.to_string (Ps_allsat.Cube.of_masked_assignment b mask));
          Buffer.add_char text '\n';
          true)
    in
    Alcotest.(check bool) (name ^ ": complete") true (r = Solver.Unsat);
    check_run name ~stats ~transcript s (Buffer.contents text)
  in
  run "minterms" ~stats:[ 65096; 1360; 195612; 13; 0; 1360 ]
    ~transcript:"b2a8daeeab9ff1f2e99fc0340b36e967" ();
  run "shrink"
    ~shrink:(Ps_allsat.Cnf_lift.make f (Ps_allsat.Project.of_vars proj))
    ~stats:[ 15839; 1370; 93342; 13; 0; 1370 ]
    ~transcript:"b91de359176dcd172873fb43d1993447" ()

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
          Alcotest.test_case "bulk load = clause-by-clause add" `Quick
            test_load_is_add_each;
          Helpers.qtest "bulk load = clause-by-clause add, random 3-CNF"
            QCheck.(make Gen.(int_bound 100_000))
            prop_load_is_add_each;
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
      ( "trajectory",
        [
          Alcotest.test_case "solve" `Quick test_trajectory_solve;
          Alcotest.test_case "assumption series" `Quick
            test_trajectory_assumptions;
          Alcotest.test_case "enumeration" `Quick test_trajectory_enumerate;
        ] );
    ]
