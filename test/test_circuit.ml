(* Tests for Ps_circuit: gate semantics, netlist validation, builder,
   .bench I/O, simulation (2- and 3-valued), Tseitin encoding, and the
   transition views. The executable also runs the suites of
   [Test_netlist_tools]. *)

module G = Ps_circuit.Gate
module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module Bench = Ps_circuit.Bench
module Sim = Ps_circuit.Sim
module Ts = Ps_circuit.Tseitin
module Tr = Ps_circuit.Transition
module Lit = Ps_sat.Lit
module Solver = Ps_sat.Solver
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Gate ----------------------------------------------------------------- *)

let test_gate_eval () =
  check_bool "and" true (G.eval G.And [| true; true; true |]);
  check_bool "and f" false (G.eval G.And [| true; false |]);
  check_bool "nand" true (G.eval G.Nand [| true; false |]);
  check_bool "or" true (G.eval G.Or [| false; true |]);
  check_bool "nor" true (G.eval G.Nor [| false; false |]);
  check_bool "xor odd" true (G.eval G.Xor [| true; true; true |]);
  check_bool "xor even" false (G.eval G.Xor [| true; true |]);
  check_bool "xnor" true (G.eval G.Xnor [| true; true |]);
  check_bool "not" false (G.eval G.Not [| true |]);
  check_bool "buf" true (G.eval G.Buf [| true |]);
  check_bool "const0" false (G.eval G.Const0 [||]);
  check_bool "const1" true (G.eval G.Const1 [||]);
  Alcotest.check_raises "not arity" (Invalid_argument "Gate.eval: bad arity 2 for NOT")
    (fun () -> ignore (G.eval G.Not [| true; false |]));
  Alcotest.check_raises "const arity" (Invalid_argument "Gate.eval: bad arity 1 for CONST0")
    (fun () -> ignore (G.eval G.Const0 [| true |]))

let test_gate_eval3_dominance () =
  (* a controlling input decides the output through Xs *)
  check_bool "and with 0 and X" true (G.eval3 G.And [| G.F; G.X |] = G.F);
  check_bool "nand with 0 and X" true (G.eval3 G.Nand [| G.X; G.F |] = G.T);
  check_bool "or with 1 and X" true (G.eval3 G.Or [| G.X; G.T |] = G.T);
  check_bool "nor with 1 and X" true (G.eval3 G.Nor [| G.T; G.X |] = G.F);
  check_bool "and all T" true (G.eval3 G.And [| G.T; G.T |] = G.T);
  check_bool "and with X undecided" true (G.eval3 G.And [| G.T; G.X |] = G.X);
  check_bool "xor with X" true (G.eval3 G.Xor [| G.T; G.X |] = G.X);
  check_bool "xor decided" true (G.eval3 G.Xor [| G.T; G.F |] = G.T);
  check_bool "not X" true (G.eval3 G.Not [| G.X |] = G.X)

let eval3_refines_eval =
  (* On X-free inputs eval3 equals eval; replacing Xs by any value can only
     refine a non-X eval3 output. *)
  Helpers.qtest "eval3 consistent with eval" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let kind =
        R.pick rng [ G.And; G.Or; G.Nand; G.Nor; G.Xor; G.Xnor; G.Not; G.Buf ]
      in
      let arity = match kind with G.Not | G.Buf -> 1 | _ -> 1 + R.int rng 4 in
      let tri = Array.init arity (fun _ -> R.pick rng [ G.F; G.T; G.X ]) in
      let out3 = G.eval3 kind tri in
      (* complete the Xs randomly several times *)
      let consistent = ref true in
      for _ = 1 to 8 do
        let bools =
          Array.map
            (function G.F -> false | G.T -> true | G.X -> R.bool rng)
            tri
        in
        let out = G.eval kind bools in
        (match out3 with
        | G.F -> if out then consistent := false
        | G.T -> if not out then consistent := false
        | G.X -> ())
      done;
      !consistent)

let eval3_into_matches_gate_eval3 =
  (* The simulator's in-place folds against the per-gate oracle: random
     netlists over every gate kind (constants, arity-1 AND/OR, XOR/XNOR
     over X fanins included), leaves drawn from 0/1/X. The [values]
     array is reused across two environments, so a stale entry would
     show. *)
  Helpers.qtest "eval3_into = per-gate Gate.eval3" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nleaves = 1 + R.int rng 5 in
      let ngates = 1 + R.int rng 25 in
      let drivers =
        Array.init (nleaves + ngates) (fun i ->
            if i < nleaves then N.Input
            else
              let kind = R.pick rng G.all_kinds in
              let arity =
                match kind with
                | G.Const0 | G.Const1 -> 0
                | G.Not | G.Buf -> 1
                | _ -> 1 + R.int rng 4
              in
              N.Gate (kind, Array.init arity (fun _ -> R.int rng i)))
      in
      let n =
        N.make ~drivers
          ~names:(Array.init (Array.length drivers) (Printf.sprintf "n%d"))
          ~outputs:[ Array.length drivers - 1 ]
      in
      let oracle env =
        let v = Array.copy env in
        Array.iter
          (fun g ->
            match N.driver n g with
            | N.Gate (kind, fanins) ->
              v.(g) <- G.eval3 kind (Array.map (fun f -> v.(f)) fanins)
            | N.Input | N.Latch _ -> ())
          (N.topo_gates n);
        v
      in
      let values = Array.make (N.num_nets n) G.X in
      List.for_all
        (fun () ->
          let env =
            Array.init (N.num_nets n) (fun _ -> R.pick rng [ G.F; G.T; G.X ])
          in
          Sim.eval3_into n ~env ~values;
          values = oracle env)
        [ (); () ])

let test_gate_strings () =
  List.iter
    (fun k ->
      match G.kind_of_string (G.kind_to_string k) with
      | Some k' when k = k' -> ()
      | _ -> Alcotest.fail ("kind string roundtrip failed for " ^ G.kind_to_string k))
    G.all_kinds;
  check_bool "INV alias" true (G.kind_of_string "inv" = Some G.Not);
  check_bool "vcc alias" true (G.kind_of_string "VCC" = Some G.Const1);
  check_bool "unknown" true (G.kind_of_string "FOO" = None)

(* --- Netlist validation ----------------------------------------------------- *)

let test_netlist_validation () =
  let gate k fanins = N.Gate (k, Array.of_list fanins) in
  let mk drivers names outputs =
    N.make ~drivers:(Array.of_list drivers) ~names:(Array.of_list names) ~outputs
  in
  (* valid tiny netlist *)
  let n = mk [ N.Input; gate G.Not [ 0 ] ] [ "a"; "b" ] [ 1 ] in
  check_int "nets" 2 (N.num_nets n);
  (* duplicate names *)
  (try
     ignore (mk [ N.Input; N.Input ] [ "a"; "a" ] []);
     Alcotest.fail "expected duplicate-name failure"
   with Invalid_argument _ -> ());
  (* dangling references: the message names the referring gate or latch *)
  Alcotest.check_raises "dangling gate fanin"
    (Invalid_argument "Netlist.make: gate \"g\" references invalid net 7")
    (fun () -> ignore (mk [ N.Input; gate G.And [ 0; 7 ] ] [ "a"; "g" ] []));
  Alcotest.check_raises "dangling latch data"
    (Invalid_argument "Netlist.make: latch \"q\" references invalid net -1")
    (fun () ->
      ignore (mk [ N.Input; N.Latch { data = -1; init = None } ] [ "a"; "q" ] []));
  Alcotest.check_raises "dangling output"
    (Invalid_argument "Netlist.make: outputs references invalid net 2")
    (fun () -> ignore (mk [ N.Input; N.Input ] [ "a"; "b" ] [ 2 ]));
  (* combinational cycle *)
  (try
     ignore (mk [ gate G.Not [ 1 ]; gate G.Not [ 0 ] ] [ "a"; "b" ] []);
     Alcotest.fail "expected cycle failure"
   with Invalid_argument _ -> ());
  (* bad arity *)
  (try
     ignore (mk [ N.Input; gate G.Not [ 0; 0 ] ] [ "a"; "b" ] []);
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ());
  (* sequential loop through a latch is fine *)
  let n = mk [ N.Latch { data = 1; init = None }; gate G.Not [ 0 ] ] [ "q"; "nq" ] [ 1 ] in
  check_int "latch loop ok" 2 (N.num_nets n)

let test_netlist_queries () =
  let b = B.create () in
  let x = B.input b "x" in
  let q = B.latch b "q" in
  let g1 = B.and_ b ~name:"g1" [ x; q ] in
  let g2 = B.not_ b ~name:"g2" g1 in
  B.set_latch_data b q g2;
  B.output b g2;
  let n = B.finalize b in
  Alcotest.(check (list int)) "inputs" [ x ] (N.inputs n);
  Alcotest.(check (list int)) "latches" [ q ] (N.latches n);
  check_int "latch data" g2 (N.latch_data n q);
  Alcotest.(check (list int)) "outputs" [ g2 ] (N.outputs n);
  check_int "find" g1 (N.find n "g1");
  check_bool "find_opt none" true (N.find_opt n "zzz" = None);
  check_int "num_gates" 2 (N.num_gates n);
  (* fanouts: x feeds g1 only; g1 feeds g2 *)
  Alcotest.(check (list int)) "fanout of x" [ g1 ] (N.fanouts n).(x);
  Alcotest.(check (list int)) "fanout of g1" [ g2 ] (N.fanouts n).(g1);
  (* cone of g2 includes everything *)
  let cone = N.cone n [ g2 ] in
  check_bool "cone includes leaves" true (cone.(x) && cone.(q) && cone.(g1) && cone.(g2));
  (try
     ignore (N.latch_data n x);
     Alcotest.fail "expected latch_data failure"
   with Invalid_argument _ -> ())

(* --- Builder ------------------------------------------------------------------ *)

let test_builder_errors () =
  let b = B.create () in
  ignore (B.input b "x");
  (try
     ignore (B.input b "x");
     Alcotest.fail "expected duplicate-name failure"
   with Invalid_argument _ -> ());
  let b2 = B.create () in
  ignore (B.latch b2 "q");
  (try
     ignore (B.finalize b2);
     Alcotest.fail "expected unconnected-latch failure"
   with Invalid_argument _ -> ())

let test_builder_mux () =
  let b = B.create () in
  let s = B.input b "s" in
  let a = B.input b "a" in
  let c = B.input b "c" in
  let m = B.mux b ~sel:s ~if1:a ~if0:c in
  B.output b m;
  let n = B.finalize b in
  Helpers.iter_leaf_assignments n (fun env _ ->
      let v = Sim.eval n ~env in
      let expected = if env.(s) then env.(a) else env.(c) in
      if v.(m) <> expected then Alcotest.fail "mux truth table")

let test_builder_of_netlist () =
  let base = Ps_gen.Iscas.s27 () in
  let b = B.of_netlist base in
  let extra = B.not_ b ~name:"extension" (N.find base "G17") in
  B.output b extra;
  let n = B.finalize b in
  check_int "ids preserved" (N.find base "G17") (N.find n "G17");
  check_int "one more gate" (N.num_gates base + 1) (N.num_gates n);
  check_bool "original outputs kept" true (List.mem (N.find n "G17") (N.outputs n))

(* --- Bench I/O ------------------------------------------------------------------ *)

let test_bench_s27 () =
  let n = Ps_gen.Iscas.s27 () in
  let i, l, g, o = N.stats n in
  check_int "inputs" 4 i;
  check_int "latches" 3 l;
  check_int "gates" 10 g;
  check_int "outputs" 1 o

let test_bench_roundtrip_suite () =
  List.iter
    (fun e ->
      let n = Lazy.force e.Ps_gen.Suite.circuit in
      let n' = Bench.parse_string (Bench.to_string n) in
      Alcotest.(check string)
        ("roundtrip " ^ e.Ps_gen.Suite.name)
        (Bench.to_string n) (Bench.to_string n'))
    Ps_gen.Suite.all

let test_bench_errors () =
  let fails s =
    match Bench.parse_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail ("expected bench parse failure on: " ^ s)
  in
  fails "x = FOO(a)\nINPUT(a)";      (* unknown gate *)
  fails "x = AND(a, b)";              (* undefined nets *)
  fails "INPUT(a)\nINPUT(a)";        (* duplicate definition *)
  fails "INPUT(a)\nx = DFF(a, a)";   (* DFF arity *)
  fails "INPUT a";                     (* missing paren *)
  fails "OUTPUT(q)";                   (* undefined output *)
  (* Bad arity and combinational cycles name the gate's line. *)
  let located line s =
    match Bench.parse_string s with
    | exception Failure msg ->
      check_bool ("located: " ^ msg) true
        (Helpers.contains msg (Printf.sprintf "line %d:" line))
    | _ -> Alcotest.fail ("expected bench parse failure on: " ^ s)
  in
  located 3 "INPUT(a)\nINPUT(q)\nz = NOT(a, q)\nOUTPUT(z)";
  located 2 "INPUT(a)\nz = AND()\nOUTPUT(z)";
  located 3 "INPUT(a)\nOUTPUT(z)\nz = AND(z, a)";
  located 3 "INPUT(a)\ny = NOT(a)\nx = AND(w, a)\nw = OR(x, y)\nOUTPUT(w)";
  (* comments and blank lines are fine *)
  let n = Bench.parse_string "# hi\n\nINPUT(a) # inline comment\nOUTPUT(b)\nb = NOT(a)\n" in
  check_int "parsed through comments" 2 (N.num_nets n)

(* --- Verilog -------------------------------------------------------------- *)

let test_verilog_parse () =
  let src = {|
// a tiny sequential module
module toy (a, b, y);
  input a, b;
  output y;
  wire w1, q;
  and  g1 (w1, a, b);      /* two-input and */
  dff  r1 (q, w1);
  xor  g2 (y, q, a);
endmodule
|} in
  let n = Ps_circuit.Verilog.parse_string src in
  let i, l, g, o = N.stats n in
  check_int "inputs" 2 i;
  check_int "latches" 1 l;
  check_int "gates" 2 g;
  check_int "outputs" 1 o;
  (* y = q xor a with q latched from a&b *)
  let out, next = Sim.step n ~inputs:[| true; true |] ~state:[| false |] in
  check_bool "y = 0 xor 1" true out.(0);
  Alcotest.(check (array bool)) "latch captures a&b" [| true |] next

let test_verilog_roundtrip_suite () =
  List.iter
    (fun e ->
      let n = Lazy.force e.Ps_gen.Suite.circuit in
      let n' = Ps_circuit.Verilog.parse_string (Ps_circuit.Verilog.to_string n) in
      Alcotest.(check string)
        ("verilog roundtrip " ^ e.Ps_gen.Suite.name)
        (Bench.to_string n) (Bench.to_string n'))
    Ps_gen.Suite.all

let test_verilog_errors () =
  let fails s =
    match Ps_circuit.Verilog.parse_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail ("expected verilog failure on: " ^ s)
  in
  fails "module m (a); input a; foo g (x, a); endmodule";  (* unknown primitive *)
  fails "module m (y); output y; endmodule";      (* undriven output *)
  fails "module m (a); input a; and g1 (a, a); endmodule"; (* net driven twice *)
  fails "module m (a); input a; /* unterminated";
  fails "module m (a) input a; endmodule";         (* missing ';' *)
  let located line s =
    match Ps_circuit.Verilog.parse_string s with
    | exception Failure msg ->
      check_bool ("located: " ^ msg) true
        (Helpers.contains msg (Printf.sprintf "line %d:" line))
    | _ -> Alcotest.fail ("expected verilog failure on: " ^ s)
  in
  located 2 "module m (a, q, z); input a, q; output z;\nbuf g1(z, a, q);\nendmodule";
  located 2 "module m (a, z); input a; output z; wire w;\nand g1(z, a, w);\nassign w = z;\nendmodule"

(* --- Sim ----------------------------------------------------------------------- *)

let test_sim_counter_step () =
  let n = Ps_gen.Counters.binary ~bits:4 () in
  let state = ref (Array.make 4 false) in
  (* count 5 steps with enable *)
  for _ = 1 to 5 do
    let _, next = Sim.step n ~inputs:[| true |] ~state:!state in
    state := next
  done;
  let value = Array.to_list !state |> List.mapi (fun i b -> if b then 1 lsl i else 0)
              |> List.fold_left ( + ) 0 in
  check_int "counted to 5" 5 value;
  (* disable holds *)
  let _, held = Sim.step n ~inputs:[| false |] ~state:!state in
  Alcotest.(check (array bool)) "hold" !state held;
  (* output fires at 15 *)
  let s15 = Array.make 4 true in
  let out, _ = Sim.step n ~inputs:[| false |] ~state:s15 in
  check_bool "all_ones output" true out.(0)

let test_sim_errors () =
  let n = Ps_gen.Counters.binary ~bits:4 () in
  (try
     ignore (Sim.step n ~inputs:[||] ~state:(Array.make 4 false));
     Alcotest.fail "expected input-arity failure"
   with Invalid_argument _ -> ());
  (try
     ignore (Sim.step n ~inputs:[| true |] ~state:(Array.make 3 false));
     Alcotest.fail "expected state-arity failure"
   with Invalid_argument _ -> ())

let test_sim_run () =
  let n = Ps_gen.Counters.binary ~bits:3 () in
  let trace = Sim.run n ~state:(Array.make 3 false)
      ~input_seq:[ [| true |]; [| true |]; [| false |] ] in
  check_int "trace length" 3 (List.length trace);
  let _, final = List.nth trace 2 in
  Alcotest.(check (array bool)) "0 -> 1 -> 2 -> hold" [| false; true; false |] final

let test_sim3_x_propagation () =
  let n = Ps_gen.Counters.binary ~bits:2 () in
  let en = List.hd (N.inputs n) in
  let q0 = List.nth (N.latches n) 0 in
  let q1 = List.nth (N.latches n) 1 in
  let env = Array.make (N.num_nets n) G.X in
  (* en = 0: next state = state even through Xs on q1 *)
  env.(en) <- G.F;
  env.(q0) <- G.T;
  let v = Sim.eval3 n ~env in
  check_bool "nx0 = q0 when disabled" true (v.(N.latch_data n q0) = G.T);
  check_bool "nx1 stays X" true (v.(N.latch_data n q1) = G.X)

let sim3_agrees_with_sim =
  Helpers.qtest "X-free ternary simulation equals boolean simulation" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n = Helpers.random_comb rng ~nin:(1 + R.int rng 5) ~ngates:(1 + R.int rng 15) in
      let ok = ref true in
      Helpers.iter_leaf_assignments n (fun env _ ->
          let v2 = Sim.eval n ~env in
          let env3 = Array.map (fun b -> G.tri_of_bool b) env in
          let v3 = Sim.eval3 n ~env:env3 in
          Array.iteri
            (fun i t -> if G.bool_of_tri t <> Some v2.(i) then ok := false)
            v3);
      !ok)

(* --- Tseitin ------------------------------------------------------------------- *)

let tseitin_models_are_simulations =
  Helpers.qtest "CNF solutions project to valid simulations" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n = Helpers.random_comb rng ~nin:(1 + R.int rng 4) ~ngates:(1 + R.int rng 10) in
      let out = List.hd (N.outputs n) in
      let cnf = Ts.encode n in
      (* 1. every simulation is a model (extended over aux vars by SAT) *)
      let ok = ref true in
      Helpers.iter_leaf_assignments n (fun env _ ->
          let values = Sim.eval n ~env in
          let s = Solver.create () in
          ignore (Solver.load s cnf);
          let assumptions =
            List.init (N.num_nets n) (fun net -> Lit.make net values.(net))
          in
          if Solver.solve ~assumptions s <> Solver.Sat then ok := false);
      (* 2. SAT(cnf & out=1) iff some leaf assignment reaches 1 *)
      let reachable = ref false in
      Helpers.iter_leaf_assignments n (fun env _ ->
          if (Sim.eval n ~env).(out) then reachable := true);
      let s = Solver.create () in
      ignore (Solver.load s cnf);
      ignore (Solver.add_clause s [ Lit.pos out ]);
      !ok && (Solver.solve s = Solver.Sat) = !reachable)

let test_tseitin_cone_restriction () =
  (* two disjoint gates; restricting to one cone halves the clauses *)
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g1 = B.not_ b ~name:"g1" x in
  let g2 = B.not_ b ~name:"g2" y in
  B.output b g1;
  B.output b g2;
  let n = B.finalize b in
  let full = Ts.encode n in
  let cone = N.cone n [ g1 ] in
  let partial = Ts.encode ~cone n in
  check_bool "fewer clauses in cone" true
    (Ps_sat.Cnf.nclauses partial < Ps_sat.Cnf.nclauses full);
  check_int "cone clauses = NOT encoding" 2 (Ps_sat.Cnf.nclauses partial)

let test_tseitin_wide_xor () =
  (* 5-input XOR goes through chained aux vars; verify function. *)
  let b = B.create () in
  let ins = List.init 5 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let g = B.xor_ b ~name:"parity" ins in
  B.output b g;
  let n = B.finalize b in
  let cnf = Ts.encode n in
  check_bool "aux vars allocated" true (cnf.Ps_sat.Cnf.nvars > N.num_nets n);
  Helpers.iter_leaf_assignments n (fun env _ ->
      let values = Sim.eval n ~env in
      let s = Solver.create () in
      ignore (Solver.load s cnf);
      let assumptions =
        List.init (N.num_nets n) (fun net -> Lit.make net values.(net))
      in
      if Solver.solve ~assumptions s <> Solver.Sat then
        Alcotest.fail "wide-xor simulation not a model")

(* --- Transition ---------------------------------------------------------------- *)

let test_transition_views () =
  let n = Ps_gen.Counters.binary ~bits:4 () in
  let tr = Tr.of_netlist n in
  check_int "state bits" 4 (Tr.num_state tr);
  check_int "inputs" 1 (Tr.num_inputs tr);
  Array.iteri
    (fun i net -> check_int (Printf.sprintf "next net %d" i) (N.latch_data n net)
        tr.Tr.next_nets.(i))
    tr.Tr.state_nets;
  check_int "state_index" 2 (Tr.state_index tr tr.Tr.state_nets.(2));
  (try
     ignore (Tr.state_index tr tr.Tr.input_nets.(0));
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_transition_coi () =
  (* In the ripple counter, the cone of nx1 reads q0, q1 and en but not q2+ *)
  let n = Ps_gen.Counters.binary ~bits:4 () in
  let tr = Tr.of_netlist n in
  let _, state_bits, inputs = Tr.coi tr [ tr.Tr.next_nets.(1) ] in
  Alcotest.(check (list int)) "state support of nx1" [ 0; 1 ] state_bits;
  Alcotest.(check (list int)) "input support of nx1" [ 0 ] inputs;
  let _, state_bits, _ = Tr.coi tr [ tr.Tr.next_nets.(3) ] in
  Alcotest.(check (list int)) "state support of nx3" [ 0; 1; 2; 3 ] state_bits

let suites =
  [
    ( "gate",
      [
        Alcotest.test_case "eval" `Quick test_gate_eval;
        Alcotest.test_case "eval3 dominance" `Quick test_gate_eval3_dominance;
        eval3_refines_eval;
        Alcotest.test_case "kind strings" `Quick test_gate_strings;
      ] );
    ( "netlist",
      [
        Alcotest.test_case "validation" `Quick test_netlist_validation;
        Alcotest.test_case "queries" `Quick test_netlist_queries;
      ] );
    ( "builder",
      [
        Alcotest.test_case "errors" `Quick test_builder_errors;
        Alcotest.test_case "mux" `Quick test_builder_mux;
        Alcotest.test_case "of_netlist" `Quick test_builder_of_netlist;
      ] );
    ( "bench",
      [
        Alcotest.test_case "s27 stats" `Quick test_bench_s27;
        Alcotest.test_case "suite roundtrip" `Quick test_bench_roundtrip_suite;
        Alcotest.test_case "parse errors" `Quick test_bench_errors;
      ] );
    ( "verilog",
      [
        Alcotest.test_case "parse" `Quick test_verilog_parse;
        Alcotest.test_case "suite roundtrip" `Quick test_verilog_roundtrip_suite;
        Alcotest.test_case "errors" `Quick test_verilog_errors;
      ] );
    ( "sim",
      [
        Alcotest.test_case "counter step" `Quick test_sim_counter_step;
        Alcotest.test_case "arity errors" `Quick test_sim_errors;
        Alcotest.test_case "run" `Quick test_sim_run;
        Alcotest.test_case "ternary X propagation" `Quick test_sim3_x_propagation;
        sim3_agrees_with_sim;
        eval3_into_matches_gate_eval3;
      ] );
    ( "tseitin",
      [
        tseitin_models_are_simulations;
        Alcotest.test_case "cone restriction" `Quick test_tseitin_cone_restriction;
        Alcotest.test_case "wide xor" `Quick test_tseitin_wide_xor;
      ] );
    ( "transition",
      [
        Alcotest.test_case "views" `Quick test_transition_views;
        Alcotest.test_case "cone of influence" `Quick test_transition_coi;
      ] );
  ]

let () = Alcotest.run "ps_circuit" (suites @ Test_netlist_tools.suites)
