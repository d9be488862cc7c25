(* Tests for Ps_gen: every generator produces a well-formed netlist with
   the documented behaviour, targets have the right semantics, and the
   suite inventory is consistent. *)

module N = Ps_circuit.Netlist
module Sim = Ps_circuit.Sim
module C = Ps_gen.Counters
module L = Ps_gen.Lfsr
module F = Ps_gen.Fsm
module RS = Ps_gen.Random_seq
module T = Ps_gen.Targets
module Cube = Ps_allsat.Cube
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let state_value bits = Array.to_list bits |> List.mapi (fun i b -> if b then 1 lsl i else 0) |> List.fold_left ( + ) 0

let step_n circuit ~inputs ~state n =
  let s = ref state in
  for _ = 1 to n do
    let _, next = Sim.step circuit ~inputs ~state:!s in
    s := next
  done;
  !s

(* --- counters --------------------------------------------------------------- *)

let test_binary_counter () =
  let c = C.binary ~bits:5 () in
  let final = step_n c ~inputs:[| true |] ~state:(Array.make 5 false) 11 in
  check_int "counts to 11" 11 (state_value final);
  (* wraps at 2^5 *)
  let wrapped = step_n c ~inputs:[| true |] ~state:final 32 in
  check_int "wraps" 11 (state_value wrapped);
  (* hold *)
  let held = step_n c ~inputs:[| false |] ~state:final 7 in
  check_int "hold with en=0" 11 (state_value held);
  (try ignore (C.binary ~bits:0 ()) ; Alcotest.fail "expected bits>=1 failure"
   with Invalid_argument _ -> ())

let test_modulo_counter () =
  let c = C.modulo ~bits:4 ~m:10 () in
  let s = ref (Array.make 4 false) in
  let seen = ref [] in
  for _ = 1 to 25 do
    seen := state_value !s :: !seen;
    let _, next = Sim.step c ~inputs:[| true |] ~state:!s in
    s := next
  done;
  let seen = List.rev !seen in
  check_bool "all below modulus" true (List.for_all (fun v -> v < 10) seen);
  (* 0..9 then wrap to 0 *)
  Alcotest.(check (list int)) "first 12 values"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 0; 1 ]
    (List.filteri (fun i _ -> i < 12) seen);
  (try ignore (C.modulo ~bits:3 ~m:9 ()); Alcotest.fail "expected bad modulus"
   with Invalid_argument _ -> ())

let test_johnson_counter () =
  let c = C.johnson ~bits:4 () in
  check_int "no inputs" 0 (List.length (N.inputs c));
  (* Johnson sequence has period 2*bits and all states distinct *)
  let s = ref (Array.make 4 false) in
  let states = ref [] in
  for _ = 1 to 8 do
    states := state_value !s :: !states;
    let _, next = Sim.step c ~inputs:[||] ~state:!s in
    s := next
  done;
  check_int "back to start after 2n" 0 (state_value !s);
  check_int "8 distinct states" 8
    (List.length (List.sort_uniq compare !states))

let test_gray_counter () =
  let c = C.gray ~bits:4 () in
  (* the stored binary value increments; consecutive Gray codes of the
     stored value differ in exactly one bit *)
  let gray_of v = v lxor (v lsr 1) in
  let s = ref (Array.make 4 false) in
  for step = 0 to 9 do
    let expect_gray = gray_of step in
    let got_binary = state_value !s in
    check_int (Printf.sprintf "binary at step %d" step) step got_binary;
    ignore expect_gray;
    let _, next = Sim.step c ~inputs:[| true |] ~state:!s in
    s := next
  done

(* --- lfsr --------------------------------------------------------------------- *)

let test_lfsr_fibonacci_period () =
  let c = L.fibonacci ~bits:4 ~taps:(L.default_taps 4) () in
  (* maximal-length: from 0001, period 15, never hits 0 *)
  let s = ref [| true; false; false; false |] in
  let seen = Hashtbl.create 16 in
  let period = ref 0 in
  (try
     for i = 1 to 20 do
       let v = state_value !s in
       if v = 0 then Alcotest.fail "LFSR reached all-zero state";
       if Hashtbl.mem seen v then begin
         period := i - 1;
         raise Exit
       end;
       Hashtbl.add seen v ();
       let _, next = Sim.step c ~inputs:[||] ~state:!s in
       s := next
     done
   with Exit -> ());
  check_int "maximal period" 15 !period

let test_lfsr_galois_nonzero () =
  let c = L.galois ~bits:8 ~taps:(L.default_taps 8) () in
  let s = ref [| true; false; false; false; false; false; false; false |] in
  for _ = 1 to 50 do
    let _, next = Sim.step c ~inputs:[||] ~state:!s in
    s := next;
    if state_value !s = 0 then Alcotest.fail "Galois LFSR reached zero"
  done

let test_lfsr_errors () =
  (try ignore (L.fibonacci ~bits:4 ~taps:[] ()); Alcotest.fail "expected no-taps failure"
   with Invalid_argument _ -> ());
  (try ignore (L.fibonacci ~bits:4 ~taps:[ 7 ] ()); Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ())

(* --- fsm ------------------------------------------------------------------------ *)

let test_traffic_stays_green () =
  let c = F.traffic () in
  (* state bits order: p0 p1 t0 t1; start NS-green, no EW traffic *)
  let s = ref (Array.make 4 false) in
  for _ = 1 to 10 do
    let out, next = Sim.step c ~inputs:[| true; false |] ~state:!s in
    (* outputs: go_ns, go_ew *)
    check_bool "NS stays green without cross traffic" true out.(0);
    check_bool "EW not green" false out.(1);
    s := next
  done

let test_traffic_switches () =
  let c = F.traffic () in
  let s = ref (Array.make 4 false) in
  (* with EW traffic present, eventually EW gets green *)
  let got_ew_green = ref false in
  for _ = 1 to 12 do
    let out, next = Sim.step c ~inputs:[| false; true |] ~state:!s in
    if out.(1) then got_ew_green := true;
    s := next
  done;
  check_bool "EW eventually green" true !got_ew_green

let test_seq_detector () =
  let c = F.seq_detector ~pattern:"1011" () in
  let feed bits =
    let s = ref (Array.make 4 false) in
    let hits = ref [] in
    List.iter
      (fun bit ->
        let out, next = Sim.step c ~inputs:[| bit |] ~state:!s in
        ignore out;
        s := next;
        (* hit = last latch value after update: read from state *)
        hits := next.(3) :: !hits)
      bits;
    List.rev !hits
  in
  let hits = feed [ true; false; true; true ] in
  check_bool "detects 1011" true (List.nth hits 3);
  let hits = feed [ true; true; true; true ] in
  check_bool "no false hit" false (List.exists Fun.id hits);
  (try ignore (F.seq_detector ~pattern:"" ()); Alcotest.fail "expected empty-pattern failure"
   with Invalid_argument _ -> ());
  (try ignore (F.seq_detector ~pattern:"10a" ()); Alcotest.fail "expected bad-pattern failure"
   with Invalid_argument _ -> ())

let test_arbiter_grants () =
  let c = F.arbiter ~clients:4 () in
  (* initialize pointer at client 0 (one-hot) *)
  let nstate = List.length (N.latches c) in
  let s = Array.make nstate false in
  (* state bits: p0..p3 then g0..g3 (creation order) *)
  s.(0) <- true;
  (* single request: client 2 *)
  let _, next = Sim.step c ~inputs:[| false; false; true; false |] ~state:s in
  check_bool "client 2 granted" true next.(4 + 2);
  check_bool "client 0 not granted" false next.(4);
  (* no requests: no grants *)
  let _, next2 = Sim.step c ~inputs:[| false; false; false; false |] ~state:s in
  check_bool "no grant without requests" false
    (next2.(4) || next2.(5) || next2.(6) || next2.(7));
  (try ignore (F.arbiter ~clients:1 ()); Alcotest.fail "expected clients range failure"
   with Invalid_argument _ -> ())

let test_arbiter_round_robin () =
  let c = F.arbiter ~clients:2 () in
  (* both request every cycle: grants must alternate *)
  let nstate = List.length (N.latches c) in
  let s = ref (Array.make nstate false) in
  !s.(0) <- true;
  let grants = ref [] in
  for _ = 1 to 6 do
    let _, next = Sim.step c ~inputs:[| true; true |] ~state:!s in
    let g0 = next.(2) and g1 = next.(3) in
    check_bool "exactly one grant" true (g0 <> g1);
    grants := (if g0 then 0 else 1) :: !grants;
    s := next
  done;
  let gs = List.rev !grants in
  let alternates =
    let rec go = function
      | a :: b :: rest -> a <> b && go (b :: rest)
      | _ -> true
    in
    go gs
  in
  check_bool "round robin alternates" true alternates

(* --- fifo ---------------------------------------------------------------------- *)

let test_fifo_behaviour () =
  let c = Ps_gen.Fifo.controller ~ptr_bits:2 () in
  let nstate = List.length (N.latches c) in
  check_int "two 3-bit pointers" 6 nstate;
  let state = ref (Array.make nstate false) in
  let step push pop =
    let out, next = Sim.step c ~inputs:[| push; pop |] ~state:!state in
    state := next;
    (out.(0), out.(1)) (* full, empty *)
  in
  (* flags are combinational over the pre-update state, so observe with
     a no-op step after each burst *)
  let full, empty = step false false in
  check_bool "starts empty" true empty;
  check_bool "not full" false full;
  (* push 4 times -> full *)
  for _ = 1 to 4 do
    ignore (step true false)
  done;
  let full, empty = step false false in
  check_bool "full after 4 pushes" true full;
  check_bool "not empty" false empty;
  (* push on full is ignored *)
  ignore (step true false);
  let full, _ = step false false in
  check_bool "still full (push ignored)" true full;
  (* pop 4 times -> empty again *)
  for _ = 1 to 4 do
    ignore (step false true)
  done;
  let full, empty = step false false in
  check_bool "empty after 4 pops" true empty;
  check_bool "not full" false full;
  (* pop on empty is ignored *)
  ignore (step false true);
  let _, empty = step false false in
  check_bool "still empty (pop ignored)" true empty

let test_fifo_invariant_by_reachability () =
  (* "full and empty simultaneously" is unreachable from the reset state *)
  let c = Ps_gen.Fifo.controller ~ptr_bits:1 () in
  let bits = List.length (N.latches c) in
  (* full&empty means low bits equal and wrap bits both equal and unequal:
     impossible by construction — verify instead that occupancy never
     exceeds capacity: head-tail distance <= 2 for ptr_bits=1.
     Use forward reachability from 0 and check each reached state. *)
  let t = Preimage.Image.create c in
  let r = Preimage.Image.forward_reach t ~init:(T.value ~bits 0) in
  let ok = ref true in
  let w = 2 in
  for code = 0 to (1 lsl bits) - 1 do
    let s = Array.init bits (fun i -> (code lsr i) land 1 = 1) in
    if Ps_bdd.Bdd.eval r.Preimage.Image.reached s then begin
      let head = (code lsr 0) land 3 and tail = (code lsr w) land 3 in
      let occupancy = (tail - head + 4) mod 4 in
      if occupancy > 2 then ok := false
    end
  done;
  check_bool "occupancy bounded by capacity" true !ok

(* --- targets.parse ----------------------------------------------------------------- *)

let test_targets_parse () =
  let names = [| "q0"; "q1"; "q2" |] in
  let p spec = T.parse ~bits:3 ~names spec in
  check_bool "all-ones" true (T.mem (p "all-ones") [| true; true; true |]);
  check_bool "value" true (T.mem (p "value:5") [| true; false; true |]);
  check_bool "expr" true (T.mem (p "expr:q2&!q0") [| false; true; true |]);
  check_bool "cubes" true (T.mem (p "1--,0-1") [| false; false; true |]);
  (try ignore (p "value:zzz"); Alcotest.fail "expected bad value"
   with Failure _ -> ());
  (try ignore (p "11"); Alcotest.fail "expected width failure"
   with Failure _ -> ());
  (* An empty body names the syntax it lacks, not a cube character. *)
  List.iter
    (fun (spec, syntax) ->
      match p spec with
      | _ -> Alcotest.fail ("expected a failure on " ^ spec)
      | exception Failure msg ->
        check_bool (spec ^ " names " ^ syntax) true
          (Helpers.contains msg syntax))
    [ ("expr:", "expr:<"); ("value:", "value:<") ]

(* --- random_seq -------------------------------------------------------------------- *)

let test_random_seq_deterministic () =
  let spec = { RS.default_spec with seed = 5 } in
  let a = RS.generate spec and b = RS.generate spec in
  Alcotest.(check string) "same seed, same netlist"
    (Ps_circuit.Bench.to_string a) (Ps_circuit.Bench.to_string b);
  let c = RS.generate { spec with seed = 6 } in
  check_bool "different seed differs" true
    (Ps_circuit.Bench.to_string a <> Ps_circuit.Bench.to_string c)

let test_random_seq_spec () =
  let n = RS.generate { RS.default_spec with n_inputs = 3; n_latches = 5; n_gates = 20 } in
  let i, l, g, _ = N.stats n in
  check_int "inputs" 3 i;
  check_int "latches" 5 l;
  check_int "gates" 20 g;
  (try ignore (RS.generate { RS.default_spec with n_inputs = 0 });
     Alcotest.fail "expected spec failure"
   with Invalid_argument _ -> ());
  (try ignore (RS.generate { RS.default_spec with max_arity = 1 });
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ())

(* --- targets ------------------------------------------------------------------------- *)

let test_targets () =
  let t = T.value ~bits:4 5 in
  check_bool "value mem" true (T.mem t [| true; false; true; false |]);
  check_bool "value not mem" false (T.mem t [| false; false; true; false |]);
  check_int "single cube" 1 (List.length t);
  check_bool "all_ones" true (T.mem (T.all_ones ~bits:3) [| true; true; true |]);
  check_bool "upper_half" true (T.mem (T.upper_half ~bits:3) [| false; false; true |]);
  let t2 = T.of_strings [ "1-0"; "0-1" ] in
  check_int "two cubes" 2 (List.length t2);
  check_bool "dnf mem" true (T.mem t2 [| false; true; true |]);
  (try ignore (T.of_strings []); Alcotest.fail "expected empty failure"
   with Invalid_argument _ -> ());
  (try ignore (T.value ~bits:3 8); Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ())

let test_targets_random () =
  let rng = R.create ~seed:1 in
  let t = T.random ~bits:6 ~ncubes:5 ~density:0.5 rng in
  check_int "ncubes" 5 (List.length t);
  check_bool "widths" true (List.for_all (fun c -> Cube.width c = 6) t)

(* --- iscas + suite ---------------------------------------------------------------------- *)

let test_s27_simulation () =
  let c = Ps_gen.Iscas.s27 () in
  (* from state 000 with all inputs 0: G14=1, G8=G14&G6=0, G12=nor(G1,G7)=1,
     G13=nor(G2,G12)=0, G10=nor(G14,G11), G11=nor(G5,G9)...
     just check determinism and output consistency against Sim.eval. *)
  let out1, next1 = Sim.step c ~inputs:[| false; false; false; false |] ~state:[| false; false; false |] in
  let out2, next2 = Sim.step c ~inputs:[| false; false; false; false |] ~state:[| false; false; false |] in
  Alcotest.(check (array bool)) "deterministic outputs" out1 out2;
  Alcotest.(check (array bool)) "deterministic next" next1 next2;
  (* G17 = NOT(G11); with G5=0, G9=NAND(...)=? just check it's a bool *)
  check_int "one output" 1 (Array.length out1)

let test_suite_consistency () =
  let names = Ps_gen.Suite.names in
  check_int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun e ->
      let c = Lazy.force e.Ps_gen.Suite.circuit in
      check_bool (e.Ps_gen.Suite.name ^ " has latches") true
        (List.length (N.latches c) > 0))
    Ps_gen.Suite.all;
  check_bool "small is subset" true
    (List.for_all (fun e -> List.mem e.Ps_gen.Suite.name names) Ps_gen.Suite.small);
  let e = Ps_gen.Suite.find "s27" in
  check_bool "find works" true (e.Ps_gen.Suite.name = "s27");
  (try ignore (Ps_gen.Suite.find "nope"); Alcotest.fail "expected Not_found"
   with Not_found -> ());
  (* default targets have matching width *)
  List.iter
    (fun e ->
      let c = Lazy.force e.Ps_gen.Suite.circuit in
      let bits = List.length (N.latches c) in
      List.iter
        (fun cube -> check_int "target width" bits (Cube.width cube))
        (Ps_gen.Suite.default_target e))
    Ps_gen.Suite.all

let () =
  Alcotest.run "ps_gen"
    [
      ( "counters",
        [
          Alcotest.test_case "binary" `Quick test_binary_counter;
          Alcotest.test_case "modulo" `Quick test_modulo_counter;
          Alcotest.test_case "johnson" `Quick test_johnson_counter;
          Alcotest.test_case "gray" `Quick test_gray_counter;
        ] );
      ( "lfsr",
        [
          Alcotest.test_case "fibonacci period" `Quick test_lfsr_fibonacci_period;
          Alcotest.test_case "galois nonzero" `Quick test_lfsr_galois_nonzero;
          Alcotest.test_case "errors" `Quick test_lfsr_errors;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "traffic stays green" `Quick test_traffic_stays_green;
          Alcotest.test_case "traffic switches" `Quick test_traffic_switches;
          Alcotest.test_case "sequence detector" `Quick test_seq_detector;
          Alcotest.test_case "arbiter grants" `Quick test_arbiter_grants;
          Alcotest.test_case "arbiter round robin" `Quick test_arbiter_round_robin;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "push/pop behaviour" `Quick test_fifo_behaviour;
          Alcotest.test_case "occupancy invariant" `Quick
            test_fifo_invariant_by_reachability;
        ] );
      ( "targets.parse",
        [ Alcotest.test_case "syntax" `Quick test_targets_parse ] );
      ( "random_seq",
        [
          Alcotest.test_case "deterministic" `Quick test_random_seq_deterministic;
          Alcotest.test_case "spec" `Quick test_random_seq_spec;
        ] );
      ( "targets",
        [
          Alcotest.test_case "constructors" `Quick test_targets;
          Alcotest.test_case "random" `Quick test_targets_random;
        ] );
      ( "iscas+suite",
        [
          Alcotest.test_case "s27 simulation" `Quick test_s27_simulation;
          Alcotest.test_case "suite consistency" `Quick test_suite_consistency;
        ] );
    ]
