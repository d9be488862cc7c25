(* Tests for the tools built on netlists: the expression front end,
   stuck-at-fault machinery and ATPG, and netlist structure metrics. The
   suites run in the [test_circuit] executable. *)

module Expr = Ps_circuit.Expr
module F = Ps_circuit.Faults
module Opt = Ps_circuit.Opt
module N = Ps_circuit.Netlist
module Sim = Ps_circuit.Sim
module Lit = Ps_sat.Lit
module Solver = Ps_sat.Solver
module T = Ps_gen.Targets
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Expr ------------------------------------------------------------------- *)

let test_expr_parse_eval () =
  let e = Expr.parse "a & !(b ^ c) | 0" in
  Alcotest.(check (list string)) "vars" [ "a"; "b"; "c" ] (Expr.vars e);
  let env a b c = function
    | "a" -> a
    | "b" -> b
    | "c" -> c
    | _ -> raise Not_found
  in
  check_bool "a&!(b^c)" true (Expr.eval e (env true true true));
  check_bool "b^c kills it" false (Expr.eval e (env true true false));
  check_bool "!a kills it" false (Expr.eval e (env false true true))

let test_expr_operators () =
  let t cases text =
    let e = Expr.parse text in
    List.iter
      (fun (a, b, expected) ->
        let got = Expr.eval e (function "a" -> a | "b" -> b | _ -> raise Not_found) in
        if got <> expected then
          Alcotest.fail (Printf.sprintf "%s(%b,%b) = %b" text a b got))
      cases
  in
  t [ (true, true, true); (true, false, false); (false, true, true); (false, false, true) ]
    "a -> b";
  t [ (true, true, true); (true, false, false); (false, true, false); (false, false, true) ]
    "a <-> b";
  t [ (true, true, false); (true, false, true); (false, true, true); (false, false, false) ]
    "a ^ b";
  (* precedence: & over |, | over ->, unary tightest *)
  let e = Expr.parse "!a | a & a" in
  check_bool "precedence" true
    (Expr.eval e (function "a" -> false | _ -> raise Not_found))

let test_expr_errors () =
  let fails s =
    match Expr.parse s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail ("expected parse failure on " ^ s)
  in
  fails "a &";
  fails "(a";
  fails "a b";
  fails "";
  fails "a $ b"

let expr_roundtrip_preserves_eval =
  Helpers.qtest "pp/parse roundtrip keeps eval" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 4 in
      let he = Helpers.random_expr rng 4 nvars in
      let rec to_expr = function
        | Helpers.E_var v -> Expr.Var (Printf.sprintf "x%d" v)
        | Helpers.E_not x -> Expr.Not (to_expr x)
        | Helpers.E_and (x, y) -> Expr.And (to_expr x, to_expr y)
        | Helpers.E_or (x, y) -> Expr.Or (to_expr x, to_expr y)
        | Helpers.E_xor (x, y) -> Expr.Xor (to_expr x, to_expr y)
      in
      let e = to_expr he in
      let e2 = Expr.parse (Format.asprintf "%a" Expr.pp e) in
      let ok = ref true in
      Helpers.iter_assignments nvars (fun a ->
          let lookup name =
            a.(int_of_string (String.sub name 1 (String.length name - 1)))
          in
          if Expr.eval e2 lookup <> Expr.eval e lookup then ok := false);
      !ok)

let test_targets_of_expr () =
  let t = T.of_expr ~bits:3 ~names:[| "q0"; "q1"; "q2" |] "q2 & !q0" in
  check_bool "110 in" true (T.mem t [| false; true; true |]);
  check_bool "101 out" false (T.mem t [| true; false; true |]);
  (try ignore (T.of_expr ~bits:3 ~names:[| "a"; "b"; "c" |] "zz");
     Alcotest.fail "expected unknown-name failure"
   with Invalid_argument _ -> ());
  (try ignore (T.of_expr ~bits:2 ~names:[| "a"; "b" |] "a & !a");
     Alcotest.fail "expected empty-set failure"
   with Invalid_argument _ -> ())

(* --- Faults ----------------------------------------------------------------- *)

let test_fault_injection () =
  let c = Ps_gen.Iscas.s27 () in
  let g17 = N.find c "G17" in
  let faulty = F.inject c { F.net = g17; stuck_at = true } in
  check_int "same net count" (N.num_nets c) (N.num_nets faulty);
  (* the faulted output is constantly 1 *)
  let env = Array.make (N.num_nets faulty) false in
  let values = Sim.eval faulty ~env in
  check_bool "stuck at 1" true values.(g17);
  (try ignore (F.inject c { F.net = 10_000; stuck_at = false });
     Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ())

let test_miter_self_unsat () =
  (* miter of a circuit against itself is unsatisfiable *)
  let c = Ps_gen.Iscas.s27 () in
  let m, top = F.miter c c in
  let cnf = Ps_circuit.Tseitin.encode m in
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  ignore (Solver.add_clause s [ Lit.pos top ]);
  Alcotest.(check bool) "self-miter unsat" true (Solver.solve s = Solver.Unsat)

let miter_agrees_with_detects =
  Helpers.qtest "SAT on the fault miter iff some vector detects" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c = Helpers.random_comb rng ~nin:(2 + R.int rng 3) ~ngates:(2 + R.int rng 8) in
      let faults = F.all_faults c in
      let fault = List.nth faults (R.int rng (List.length faults)) in
      let faulty = F.inject c fault in
      let m, top = F.miter c faulty in
      let cnf = Ps_circuit.Tseitin.encode m in
      let s = Solver.create () in
      ignore (Solver.load s cnf);
      ignore (Solver.add_clause s [ Lit.pos top ]);
      let sat = Solver.solve s = Solver.Sat in
      (* oracle: some input vector detects *)
      let detected = ref false in
      let nin = List.length (N.inputs c) in
      let inputs = Array.make nin false in
      for code = 0 to (1 lsl nin) - 1 do
        Array.iteri (fun i _ -> inputs.(i) <- (code lsr i) land 1 = 1) inputs;
        if F.detects c fault ~inputs ~state:[||] then detected := true
      done;
      sat = !detected)

let test_all_faults_count () =
  let c = Ps_gen.Iscas.s27 () in
  check_int "2 faults per net" (2 * N.num_nets c) (List.length (F.all_faults c))

(* --- Opt ---------------------------------------------------------------------- *)

let test_opt_stats () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  check_bool "depth positive" true (Opt.depth c > 0);
  check_bool "fanout positive" true (Opt.max_fanout c > 0)

(* --- Atpg ------------------------------------------------------------------------ *)

let test_atpg_s27 () =
  let c = Ps_gen.Iscas.s27 () in
  let reports = Preimage.Atpg.all c in
  let n, detectable, vectors, avg_cover = Preimage.Atpg.summary reports in
  check_int "fault count" (2 * N.num_nets c) n;
  check_bool "most faults detectable" true (detectable > n / 2);
  check_bool "vectors counted" true (vectors > 0.0);
  check_bool "cover sane" true (avg_cover >= 1.0);
  (* the one guaranteed-undetectable pattern: a fault that does not change
     any output under any vector is reported not detectable; verify report
     consistency instead of a specific fault *)
  List.iter
    (fun r ->
      check_bool "detectable iff vectors" true
        (r.Preimage.Atpg.detectable = (r.Preimage.Atpg.vectors > 0.0)))
    reports

let atpg_engines_agree =
  Helpers.qtest "ATPG test sets agree across engines and with the oracle" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c = Helpers.random_comb rng ~nin:(2 + R.int rng 3) ~ngates:(2 + R.int rng 8) in
      let faults = F.all_faults c in
      let fault = List.nth faults (R.int rng (List.length faults)) in
      let r_sds, cubes_sds = Preimage.Atpg.test_set ~method_:Preimage.Engine.Sds c fault in
      let r_blk, _ = Preimage.Atpg.test_set ~method_:Preimage.Engine.Blocking c fault in
      (* oracle over all input vectors (combinational circuit: no latches) *)
      let nin = List.length (N.inputs c) in
      let detected = ref 0 in
      let inputs = Array.make nin false in
      for code = 0 to (1 lsl nin) - 1 do
        Array.iteri (fun i _ -> inputs.(i) <- (code lsr i) land 1 = 1) inputs;
        if F.detects c fault ~inputs ~state:[||] then incr detected
      done;
      r_sds.Preimage.Atpg.vectors = float_of_int !detected
      && r_blk.Preimage.Atpg.vectors = float_of_int !detected
      && List.for_all
           (fun cube ->
             (* every cube minterm detects *)
             let ok = ref true in
             Ps_allsat.Cube.iter_minterms cube (fun bits ->
                 if not (F.detects c fault ~inputs:bits ~state:[||]) then ok := false);
             !ok)
           cubes_sds)

let suites =
  [
    ( "expr",
      [
        Alcotest.test_case "parse/eval" `Quick test_expr_parse_eval;
        Alcotest.test_case "operators" `Quick test_expr_operators;
        Alcotest.test_case "errors" `Quick test_expr_errors;
        expr_roundtrip_preserves_eval;
        Alcotest.test_case "targets of_expr" `Quick test_targets_of_expr;
      ] );
    ( "faults",
      [
        Alcotest.test_case "injection" `Quick test_fault_injection;
        Alcotest.test_case "self-miter unsat" `Quick test_miter_self_unsat;
        miter_agrees_with_detects;
        Alcotest.test_case "all_faults count" `Quick test_all_faults_count;
      ] );
    ("opt", [ Alcotest.test_case "stats" `Quick test_opt_stats ]);
    ( "atpg",
      [
        Alcotest.test_case "s27 fault universe" `Quick test_atpg_s27;
        atpg_engines_agree;
      ] );
  ]
