(* Tests for the verification layer: k-induction proofs, restructuring
   with VCD output, and sequential equivalence checking. *)

module N = Ps_circuit.Netlist
module Sim = Ps_circuit.Sim
module Ind = Preimage.Induction
module Sec = Preimage.Sec
module Bmc = Preimage.Bmc
module T = Ps_gen.Targets
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Induction ----------------------------------------------------------- *)

let test_induction_proves_mod10 () =
  (* "the mod-10 counter never shows a value >= 10" is inductive: the bad
     states are not even reachable from good states in one step *)
  let c = Ps_gen.Counters.modulo ~bits:4 ~m:10 () in
  let bad =
    T.of_expr ~bits:4 ~names:[| "q0"; "q1"; "q2"; "q3" |] "q3 & (q1 | q2)"
  in
  match Ind.prove c ~init:(T.value ~bits:4 0) ~bad ~max_k:5 with
  | Ind.Proved k -> check_bool "small k" true (k <= 3)
  | Ind.Falsified _ -> Alcotest.fail "property is true; got counterexample"
  | Ind.Unknown _ -> Alcotest.fail "property is inductive; got unknown"

let test_induction_falsifies () =
  (* plain counter does overflow past 9 *)
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let bad = T.of_strings [ "-1-1"; "--11" ] in
  match Ind.prove c ~init:(T.value ~bits:4 0) ~bad ~max_k:15 with
  | Ind.Falsified cex ->
    check_int "shortest violation at 10 steps" 10 cex.Bmc.depth
  | Ind.Proved _ -> Alcotest.fail "property is false; got proof"
  | Ind.Unknown _ -> Alcotest.fail "bound was enough to falsify"

let test_induction_needs_uniqueness () =
  (* Johnson-counter invariant: from state 0000, the one-hot-boundary
     code space (00..0 1..1 pattern) is preserved — but plain k-induction
     at k=1 fails because unreachable bad-adjacent states exist; with
     simple-path constraints it settles. We only check both modes
     terminate consistently. *)
  let c = Ps_gen.Counters.johnson ~bits:4 () in
  (* bad: the state 0101 (not a Johnson code word, unreachable from 0) *)
  let bad = T.value ~bits:4 5 in
  let init = T.value ~bits:4 0 in
  let plain = Ind.prove c ~init ~bad ~max_k:20 in
  let strong = Ind.prove ~unique_states:true c ~init ~bad ~max_k:20 in
  (match strong with
  | Ind.Proved _ -> ()
  | Ind.Falsified _ -> Alcotest.fail "0101 is unreachable; got counterexample"
  | Ind.Unknown _ -> Alcotest.fail "unique-states induction must converge here");
  (match plain with
  | Ind.Falsified _ -> Alcotest.fail "0101 is unreachable; got counterexample"
  | Ind.Proved _ | Ind.Unknown _ -> ())

let induction_agrees_with_reachability =
  Helpers.qtest "induction verdicts are consistent with exact reachability"
    ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let init_code = R.int rng (1 lsl nstate) in
      let init = T.value ~bits:nstate init_code in
      let bad = T.random ~bits:nstate ~ncubes:1 ~density:0.6 rng in
      (* exact answer by forward reachability *)
      let ctx = Preimage.Image.create c in
      let fwd = Preimage.Image.forward_reach ctx ~init in
      let truly_safe =
        not
          (Preimage.Image.intersects ctx fwd.Preimage.Image.reached
             (Preimage.Image.of_cubes ctx bad))
      in
      match Ind.prove ~unique_states:true c ~init ~bad ~max_k:12 with
      | Ind.Proved _ -> truly_safe
      | Ind.Falsified _ -> not truly_safe
      | Ind.Unknown _ ->
        (* bound too small is acceptable, but only for safe properties
           (falsification is complete up to the bound, and diameters
           here are tiny) *)
        truly_safe)

(* --- Sec ------------------------------------------------------------------- *)

let test_sec_identical () =
  let a = Ps_gen.Counters.binary ~bits:4 () in
  let b = Ps_gen.Counters.binary ~bits:4 () in
  match Sec.check a b ~init_a:(Array.make 4 false) ~init_b:(Array.make 4 false) with
  | Sec.Equivalent _ -> ()
  | Sec.Inequivalent _ -> Alcotest.fail "identical circuits must be equivalent"

let test_sec_different_init () =
  (* same circuit, different initial states: the all-ones output fires at
     different times -> distinguishable *)
  let a = Ps_gen.Counters.binary ~bits:4 () in
  let b = Ps_gen.Counters.binary ~bits:4 () in
  match
    Sec.check a b ~init_a:(Array.make 4 false)
      ~init_b:[| true; false; false; false |]
  with
  | Sec.Inequivalent cex ->
    (* replay the distinguishing prefix on the product: sanity only *)
    check_bool "trace exists" true (cex.Bmc.depth >= 0)
  | Sec.Equivalent _ -> Alcotest.fail "offset counters are distinguishable"

let test_sec_retimed_equivalent () =
  (* counter vs counter rebuilt with different gate structure but the
     same function: x+0 = buffered enable chain. Use constant-folded
     version as the second circuit. *)
  let a = Ps_gen.Counters.modulo ~bits:4 ~m:10 () in
  let b = Ps_circuit.Opt.cleanup a in
  match Sec.check a b ~init_a:(Array.make 4 false) ~init_b:(Array.make 4 false) with
  | Sec.Equivalent _ -> ()
  | Sec.Inequivalent _ -> Alcotest.fail "cleanup must preserve behaviour"

let test_sec_interface_mismatch () =
  let a = Ps_gen.Counters.binary ~bits:2 () in
  let b = Ps_gen.Fsm.traffic () in
  (try
     ignore (Sec.product a b);
     Alcotest.fail "expected interface mismatch"
   with Invalid_argument _ -> ())

let test_sec_product_structure () =
  let a = Ps_gen.Counters.binary ~bits:3 () in
  let b = Ps_gen.Counters.gray ~bits:3 () in
  let p = Sec.product a b in
  check_int "latches add up" 6 (List.length (N.latches p.Sec.netlist));
  check_int "nstate_a" 3 p.Sec.nstate_a;
  check_bool "diff is an output" true (List.mem p.Sec.diff (N.outputs p.Sec.netlist))

let sec_agrees_with_simulation =
  Helpers.qtest "SEC verdict matches bounded joint simulation" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      (* two circuits over the same inputs: the original and either a
         faulted copy or a cleaned copy *)
      let a =
        Helpers.random_seq rng ~nin:2 ~nlatches:(2 + R.int rng 2)
          ~ngates:(3 + R.int rng 8)
      in
      let mutate = R.bool rng in
      let b =
        if mutate then begin
          let gates = Array.to_list (N.topo_gates a) in
          let victim = List.nth gates (R.int rng (List.length gates)) in
          Ps_circuit.Faults.inject a
            { Ps_circuit.Faults.net = victim; stuck_at = R.bool rng }
        end
        else Ps_circuit.Opt.cleanup a
      in
      let nstate = List.length (N.latches a) in
      let init = Array.make nstate false in
      let verdict = Sec.check a b ~init_a:init ~init_b:init in
      (* oracle: joint simulation over all input sequences up to depth 6
         (inputs = 2 bits -> 4^6 sequences; prune via BFS over state pairs) *)
      let distinguishable =
        let seen = Hashtbl.create 64 in
        let q = Queue.create () in
        Queue.add (init, init, 0) q;
        let found = ref false in
        while not (Queue.is_empty q) do
          let sa, sb, d = Queue.pop q in
          let key = (Array.to_list sa, Array.to_list sb) in
          if (not !found) && (not (Hashtbl.mem seen key)) && d <= 20 then begin
            Hashtbl.add seen key ();
            for code = 0 to 3 do
              let inputs = [| code land 1 = 1; code land 2 = 2 |] in
              let oa, na = Sim.step a ~inputs ~state:sa in
              let ob, nb = Sim.step b ~inputs ~state:sb in
              if oa <> ob then found := true else Queue.add (na, nb, d + 1) q
            done
          end
        done;
        !found
      in
      match verdict with
      | Sec.Equivalent _ -> not distinguishable
      | Sec.Inequivalent _ -> distinguishable)

(* --- restructure / VCD -------------------------------------------------------- *)

let restructure_is_equivalent =
  Helpers.qtest "AIG restructuring preserves sequential behaviour" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(1 + R.int rng 3)
          ~ngates:(3 + R.int rng 12)
      in
      let r = Ps_circuit.Opt.restructure c in
      let nstate = List.length (N.latches c) in
      let init = Array.make nstate false in
      match Sec.check c r ~init_a:init ~init_b:init with
      | Sec.Equivalent _ -> true
      | Sec.Inequivalent _ -> false)

let test_restructure_shares () =
  (* duplicate logic collapses through the AIG *)
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  let y = Ps_circuit.Builder.input b "y" in
  let q = Ps_circuit.Builder.latch b "q" in
  let g1 = Ps_circuit.Builder.and_ b [ x; y ] in
  let g2 = Ps_circuit.Builder.and_ b [ y; x ] in
  Ps_circuit.Builder.set_latch_data b q (Ps_circuit.Builder.or_ b [ g1; g2 ]);
  Ps_circuit.Builder.output b q;
  let n = Ps_circuit.Builder.finalize b in
  let r = Ps_circuit.Opt.restructure n in
  (* or(g,g) = g: one AND node + output buf + next-state buf *)
  check_bool "fewer gates" true (N.num_gates r < N.num_gates n + 2);
  let hist = Ps_circuit.Opt.gate_histogram r in
  check_int "single and" 1
    (Option.value ~default:0 (List.assoc_opt Ps_circuit.Gate.And hist))

let test_vcd_output () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  let vcd =
    Ps_circuit.Vcd.of_run c ~state:(Array.make 3 false)
      ~input_seq:[ [| true |]; [| true |]; [| false |] ]
  in
  check_bool "header" true
    (String.length vcd > 0
    && Option.is_some (String.index_opt vcd '$'));
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length vcd
      && (String.sub vcd i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "declares q0" true (contains "$var wire 1");
  check_bool "has timestamps" true (contains "#0" && contains "#3");
  check_bool "enddefinitions" true (contains "$enddefinitions")

let () =
  Alcotest.run "verification"
    [
      ( "induction",
        [
          Alcotest.test_case "proves mod-10 safety" `Quick test_induction_proves_mod10;
          Alcotest.test_case "falsifies with shortest cex" `Quick
            test_induction_falsifies;
          Alcotest.test_case "uniqueness constraints" `Quick
            test_induction_needs_uniqueness;
          induction_agrees_with_reachability;
        ] );
      ( "restructure+vcd",
        [
          restructure_is_equivalent;
          Alcotest.test_case "structural sharing" `Quick test_restructure_shares;
          Alcotest.test_case "vcd output" `Quick test_vcd_output;
        ] );
      ( "sec",
        [
          Alcotest.test_case "identical circuits" `Quick test_sec_identical;
          Alcotest.test_case "different initial states" `Quick test_sec_different_init;
          Alcotest.test_case "cleanup is equivalence-preserving" `Quick
            test_sec_retimed_equivalent;
          Alcotest.test_case "interface mismatch" `Quick test_sec_interface_mismatch;
          Alcotest.test_case "product structure" `Quick test_sec_product_structure;
          sec_agrees_with_simulation;
        ] );
    ]
