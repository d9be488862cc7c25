(* Budget semantics: anytime partial results, deterministic stop points,
   solver Unknown, cancellation, and the JSONL trace format. *)

module E = Preimage.Engine
module I = Preimage.Instance
module T = Ps_gen.Targets
module A = Ps_allsat
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Cube = A.Cube

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- deadline: partial result on an exponential instance ------------------ *)

(* 22 state bits: the preimage of "top bit set" has 2^21 + 1 solutions,
   so minterm enumeration cannot finish; the deadline must cut it short
   and hand back the cubes found so far. *)
let test_deadline_partial () =
  let c = Ps_gen.Counters.binary ~bits:22 () in
  let inst = I.make c (T.upper_half ~bits:22) in
  let budget = Budget.make ~timeout_s:0.3 () in
  let t0 = Unix.gettimeofday () in
  let r = E.run ~budget E.Blocking inst in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "stopped on deadline" true (E.stopped r = `Deadline);
  check_bool "not complete" false (E.complete r);
  check_bool "cubes so far non-empty" true (E.cubes r <> []);
  check_bool "stats populated" true
    (Ps_util.Stats.get (E.stats r) "sat_calls" > 0);
  check_bool "returned promptly" true (elapsed < 2.0)

(* --- conflict budget: deterministic stop point ---------------------------- *)

(* A seeded random 3-CNF (50 variables, 170 clauses, 2,218 minterms
   over its first 14) fixes no projection variable at the root, so the
   blocking loop hands over to chronological enumeration after one
   blocking clause more than the problem clauses, with 143 conflicts
   spent. The whole run needs 321; a budget of 230 runs out after the
   hand-over. (Dense sets such as a counter's upper half are drained
   with a handful of conflicts, too few for a budget to bite, and a
   target that fixes state bits at the root can hand over early.) *)
let test_conflict_budget_determinism () =
  let cnf = Helpers.random_3cnf ~seed:6 ~nvars:50 ~nclauses:170 in
  let proj = A.Project.of_vars (Array.init 14 Fun.id) in
  let solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    s
  in
  let s = solver () in
  check_bool "premise: no projection variable fixed at the root" true
    (Array.for_all (fun v -> Solver.root_value s v = None) proj.A.Project.vars);
  let problem_clauses = Solver.n_clauses s in
  let run () =
    let budget = Budget.make ~conflicts:230 () in
    A.Blocking.enumerate ~budget (solver ()) proj
  in
  let r1 = run () in
  let r2 = run () in
  check_bool "stopped on conflicts" true (r1.A.Run.stopped = `Conflicts);
  check_bool "same stop reason" true (r2.A.Run.stopped = r1.A.Run.stopped);
  check_bool "same stop point" true (r1.A.Run.cubes = r2.A.Run.cubes);
  check_int "same sat calls" (A.Blocking.sat_calls r1) (A.Blocking.sat_calls r2);
  (* one classical call per blocking clause up to one past the problem
     clauses, then the chronological call, which the budget interrupts
     and which drains the rest of an unbudgeted run *)
  check_int "stopped after the hand-over" (problem_clauses + 2)
    (A.Blocking.sat_calls r1);
  let full = A.Blocking.enumerate (solver ()) proj in
  check_bool "unbudgeted run completes" true (A.Run.complete full);
  check_int "unbudgeted run hands over at the same call" (problem_clauses + 2)
    (A.Blocking.sat_calls full)

(* --- uniform cube limit: SDS partial result is an under-approximation ----- *)

let test_sds_limit_partial_is_sound () =
  let c = Ps_gen.Counters.binary ~bits:8 () in
  let inst = I.make c (T.upper_half ~bits:8) in
  let full = E.run E.Sds inst in
  check_bool "premise: full run is complete" true (E.complete full);
  check_bool "premise: more than 2 cubes" true (full.E.n_cubes > 2);
  let part = E.run ~limit:2 E.Sds inst in
  check_bool "stopped on cube limit" true (E.stopped part = `CubeLimit);
  check_bool "partial cubes non-empty" true (E.cubes part <> []);
  (* every assignment the partial cover accepts is a real solution *)
  let covered cubes bits = List.exists (fun cb -> Cube.contains cb bits) cubes in
  let sound = ref true in
  Helpers.iter_assignments 8 (fun bits ->
      let bits = Array.sub bits 0 8 in
      if covered (E.cubes part) bits && not (covered (E.cubes full) bits) then
        sound := false);
  check_bool "under-approximation" true !sound

(* --- solver: Unknown, sticky reason, reusability -------------------------- *)

(* Pigeonhole: [holes]+1 pigeons into [holes] holes — UNSAT, and the
   refutation needs far more than a handful of conflicts. *)
let php_clauses holes =
  let pigeons = holes + 1 in
  let v i j = (i * holes) + j in
  let clauses = ref [] in
  for i = 0 to pigeons - 1 do
    clauses := List.init holes (fun j -> Lit.pos (v i j)) :: !clauses
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for i' = i + 1 to pigeons - 1 do
        clauses := [ Lit.neg (v i j); Lit.neg (v i' j) ] :: !clauses
      done
    done
  done;
  !clauses

let test_solver_unknown_then_unsat () =
  let s = Solver.create () in
  List.iter (fun cl -> ignore (Solver.add_clause s cl)) (php_clauses 5);
  let budget = Budget.make ~conflicts:3 () in
  check_bool "unknown under budget" true (Solver.solve ~budget s = Solver.Unknown);
  check_bool "sticky reason" true (Budget.stopped budget = Some `Conflicts);
  check_bool "conflicts charged" true (Budget.conflicts_spent budget >= 3);
  (* the solver survives the interruption: an unbudgeted call finishes *)
  check_bool "still decides" true (Solver.solve s = Solver.Unsat)

let test_exhausted_budget_is_unknown_upfront () =
  let s = Solver.create () in
  ignore (Solver.add_clause s [ Lit.pos 0 ]);
  let budget = Budget.make ~conflicts:3 () in
  Budget.tick_conflict budget;
  Budget.tick_conflict budget;
  Budget.tick_conflict budget;
  check_bool "no work done" true (Solver.solve ~budget s = Solver.Unknown)

(* --- cancellation --------------------------------------------------------- *)

let test_cancel_flag () =
  let flag = Budget.cancel_flag () in
  let b = Budget.make ~cancel_with:flag () in
  check_bool "live before cancel" true (Budget.check b = None);
  check_bool "not requested yet" false (Budget.cancel_requested flag);
  Budget.cancel flag;
  check_bool "requested" true (Budget.cancel_requested flag);
  (* the flag is polled at most once per polling grain *)
  let rec poll n =
    match Budget.check b with
    | Some s -> Some s
    | None -> if n = 0 then None else poll (n - 1)
  in
  check_bool "cancelled" true (poll 64 = Some `Cancelled);
  check_bool "sticky" true (Budget.stopped b = Some `Cancelled);
  (* a budget takes at most one cancellation source *)
  match
    Budget.make
      ~cancel:(fun () -> false)
      ~cancel_with:(Budget.cancel_flag ()) ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_blocking_cancel_mid_run () =
  let c = Ps_gen.Counters.binary ~bits:16 () in
  let inst = I.make c (T.upper_half ~bits:16) in
  let calls = ref 0 in
  (* trip after a few polls: the run must stop with `Cancelled *)
  let budget = Budget.make ~cancel:(fun () -> incr calls; !calls > 40) () in
  let r = E.run ~budget E.Blocking inst in
  check_bool "stopped on cancel" true (E.stopped r = `Cancelled);
  check_bool "partial cubes" true (E.cubes r <> [])

(* --- JSONL trace ----------------------------------------------------------- *)

(* Minimal JSON parser (objects, strings, numbers, booleans) — enough to
   prove every trace line is well-formed on its own. *)
let json_parses s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c = if peek () = Some c then advance () else raise Exit in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t') -> advance (); skip_ws ()
    | _ -> ()
  in
  let keyword k =
    String.iter (fun c -> if peek () = Some c then advance () else raise Exit) k
  in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with Some _ -> advance (); go () | None -> raise Exit)
      | Some _ -> advance (); go ()
      | None -> raise Exit
    in
    go ()
  in
  let number () =
    let digit = function
      | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') -> true
      | _ -> false
    in
    if not (digit (peek ())) then raise Exit;
    while digit (peek ()) do advance () done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '"' -> string_ ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> keyword "true"
    | Some 'f' -> keyword "false"
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        string_ ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> raise Exit
      in
      members ()
    end
  in
  match value () with
  | () -> skip_ws (); !pos = n
  | exception Exit -> false

let contains = Helpers.contains

let test_trace_jsonl_parses () =
  let path = Filename.temp_file "ps_trace" ".jsonl" in
  let sink, close = Trace.jsonl_file path in
  let c = Ps_gen.Counters.binary ~bits:6 () in
  let inst = I.make c (T.upper_half ~bits:6) in
  let r = E.run ~trace:sink E.Sds inst in
  close ();
  check_bool "run complete" true (E.complete r);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  check_bool "trace non-empty" true (lines <> []);
  List.iter
    (fun l -> check_bool ("parses: " ^ l) true (json_parses l))
    lines;
  check_bool "has phase events" true
    (List.exists (fun l -> contains l "\"ev\":\"phase\"") lines);
  check_bool "has solve events" true
    (List.exists (fun l -> contains l "\"ev\":\"solve\"") lines);
  (* the run closes with the stop reason, then the engine's "done" marker *)
  check_bool "ends with stopped + phase done" true
    (match List.rev lines with
    | last :: prev :: _ ->
      contains prev "\"ev\":\"stopped\"" && contains last "\"phase\":\"done\""
    | _ -> false)

let test_trace_json_escaping () =
  let line =
    Trace.to_json ~time_s:0.25
      (Trace.Phase { engine = "a\"b\\c\n"; phase = "start" })
  in
  check_bool "escaped line parses" true (json_parses line)

let () =
  Alcotest.run "budget"
    [
      ( "partial results",
        [
          Alcotest.test_case "deadline on exponential instance" `Quick
            test_deadline_partial;
          Alcotest.test_case "conflict budget is deterministic" `Quick
            test_conflict_budget_determinism;
          Alcotest.test_case "sds cube-limit partial is sound" `Quick
            test_sds_limit_partial_is_sound;
        ] );
      ( "solver",
        [
          Alcotest.test_case "unknown then unsat" `Quick
            test_solver_unknown_then_unsat;
          Alcotest.test_case "exhausted budget up-front" `Quick
            test_exhausted_budget_is_unknown_upfront;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "flag is polled and sticky" `Quick test_cancel_flag;
          Alcotest.test_case "blocking stops mid-run" `Quick
            test_blocking_cancel_mid_run;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl lines parse" `Quick test_trace_jsonl_parses;
          Alcotest.test_case "json escaping" `Quick test_trace_json_escaping;
        ] );
    ]
