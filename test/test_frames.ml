(* Tests for the time-frame layer: time-frame unrolling, k-step
   preimage, universal preimage, forward image/reachability and
   witness-trace extraction, with the AIG, CNF-based lifting and
   cube-set minimization they build on. *)

module Aig = Ps_circuit.Aig
module U = Ps_circuit.Unroll
module N = Ps_circuit.Netlist
module Sim = Ps_circuit.Sim
module A = Ps_allsat
module Cube = A.Cube
module B = Ps_bdd.Bdd
module I = Preimage.Instance
module E = Preimage.Engine
module K = Preimage.Kstep
module Uni = Preimage.Universal
module Img = Preimage.Image
module Rh = Preimage.Reach
module T = Ps_gen.Targets
module R = Ps_util.Rng
module Solver = Ps_sat.Solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.0))

(* --- AIG --------------------------------------------------------------- *)

let test_aig_simplifications () =
  let a = Aig.create () in
  let x = Aig.fresh_input a in
  let y = Aig.fresh_input a in
  check_int "x & 0" Aig.false_lit (Aig.conj a x Aig.false_lit);
  check_int "x & 1" x (Aig.conj a x Aig.true_lit);
  check_int "x & x" x (Aig.conj a x x);
  check_int "x & !x" Aig.false_lit (Aig.conj a x (Aig.neg x));
  check_int "strash: same node" (Aig.conj a x y) (Aig.conj a y x);
  check_int "neg involution" x (Aig.neg (Aig.neg x));
  check_int "only one AND node" 1 (Aig.num_nodes a);
  check_int "two inputs" 2 (Aig.num_inputs a)

let aig_matches_netlist =
  Helpers.qtest "AIG conversion preserves netlist semantics" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let n = Helpers.random_comb rng ~nin:(1 + R.int rng 5) ~ngates:(1 + R.int rng 15) in
      let a, lits = Aig.of_netlist n in
      let out = List.hd (N.outputs n) in
      let ok = ref true in
      Helpers.iter_leaf_assignments n (fun env _ ->
          let values = Sim.eval n ~env in
          (* AIG inputs are netlist inputs then latches, in order *)
          let leaves = N.inputs n @ N.latches n in
          let assignment = Array.of_list (List.map (fun net -> env.(net)) leaves) in
          if Aig.eval a assignment lits.(out) <> values.(out) then ok := false);
      !ok)

let test_aig_smaller_than_gates () =
  (* structural hashing: a netlist computing the same AND twice maps to
     one AIG node *)
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  let y = Ps_circuit.Builder.input b "y" in
  let g1 = Ps_circuit.Builder.and_ b ~name:"g1" [ x; y ] in
  let g2 = Ps_circuit.Builder.and_ b ~name:"g2" [ y; x ] in
  let o = Ps_circuit.Builder.or_ b ~name:"o" [ g1; g2 ] in
  Ps_circuit.Builder.output b o;
  let n = Ps_circuit.Builder.finalize b in
  let a, _ = Aig.of_netlist n in
  (* OR(g,g) collapses: total = 1 AND node *)
  check_int "shared" 1 (Aig.num_nodes a)

(* --- Unroll ------------------------------------------------------------- *)

let test_unroll_semantics () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let u = U.unroll c ~k:3 in
  check_bool "combinational" true (N.latches u.U.netlist = []);
  check_int "frames of inputs" 3 (Array.length u.U.frame_inputs);
  (* simulate the unrolling and compare with stepping the original *)
  let rng = R.create ~seed:5 in
  for _ = 1 to 20 do
    let state0 = Array.init 4 (fun _ -> R.bool rng) in
    let inputs = Array.init 3 (fun _ -> [| R.bool rng |]) in
    (* original: 3 steps *)
    let s = ref state0 in
    for t = 0 to 2 do
      let _, next = Sim.step c ~inputs:inputs.(t) ~state:!s in
      s := next
    done;
    (* unrolled: single combinational eval *)
    let env = Array.make (N.num_nets u.U.netlist) false in
    Array.iteri (fun i net -> env.(net) <- state0.(i)) u.U.state0;
    Array.iteri
      (fun t frame -> Array.iteri (fun j net -> env.(net) <- inputs.(t).(j)) frame)
      u.U.frame_inputs;
    let values = Sim.eval u.U.netlist ~env in
    let final = Array.map (fun net -> values.(net)) u.U.state_at.(3) in
    Alcotest.(check (array bool)) "3-step agreement" !s final
  done

let test_unroll_errors () =
  let c = Ps_gen.Counters.binary ~bits:2 () in
  (try ignore (U.unroll c ~k:0); Alcotest.fail "expected k>=1 failure"
   with Invalid_argument _ -> ());
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  Ps_circuit.Builder.output b x;
  let comb = Ps_circuit.Builder.finalize b in
  (try ignore (U.unroll comb ~k:1); Alcotest.fail "expected no-latch failure"
   with Invalid_argument _ -> ())

(* --- Kstep ---------------------------------------------------------------- *)

let test_kstep_equals_one_step () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let target = T.all_ones ~bits:4 in
  let k1 = K.preimage c target ~k:1 in
  let inst = I.make c target in
  let one = E.run E.Sds inst in
  check_float "k=1 equals one-step" one.E.solutions k1.K.solutions

let kstep_equals_iterated =
  Helpers.qtest "Pre^2 by unrolling = Pre(Pre(T)) by chaining" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.7 rng in
      (* chained: cubes of Pre(T) as the next target *)
      let r1 = E.run E.Sds (I.make c target) in
      let chained =
        if E.cubes r1 = [] then []
        else E.cubes (E.run E.Sds (I.make c (E.cubes r1)))
      in
      let k2 = K.preimage c target ~k:2 in
      let man = B.new_man ~nvars:(max nstate 1) in
      let of_cubes cubes =
        List.fold_left
          (fun acc cb -> B.bor acc (B.cube man (Cube.to_list cb)))
          (B.zero man) cubes
      in
      B.equal (of_cubes chained)
        (Preimage.Check.result_bdd man k2.K.run ~width:nstate))

let test_kstep_engines_agree () =
  let c = Ps_gen.Fsm.traffic () in
  let target = T.of_strings [ "0111" ] in
  let results =
    List.map (fun m -> K.preimage ~method_:m c target ~k:3) E.all_methods
  in
  let man = B.new_man ~nvars:4 in
  let bdds =
    List.map (fun r -> Preimage.Check.result_bdd man r.K.run ~width:4) results
  in
  match bdds with
  | first :: rest ->
    List.iter
      (fun f -> check_bool "kstep engines agree" true (B.equal first f))
      rest
  | [] -> Alcotest.fail "no results"

(* --- Cnf_lift --------------------------------------------------------------- *)

let cnf_lift_sound =
  Helpers.qtest "CNF lifting produces sound cubes" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 7 in
      let cnf = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 12) ~max_len:3 in
      match Ps_sat.Cnf.brute_force_models cnf with
      | [] -> true
      | model :: _ ->
        let w = 1 + R.int rng nvars in
        let proj = A.Project.of_vars (Array.init w Fun.id) in
        let lift = A.Cnf_lift.make cnf proj in
        let mask = lift model in
        let bits = Array.init w (fun i -> model.(i)) in
        let cube = Cube.of_masked_assignment bits mask in
        (* soundness: every minterm extends to a model (keep non-projected
           vars at their model values) *)
        let ok = ref true in
        Cube.iter_minterms cube (fun minterm ->
            let full = Array.copy model in
            Array.blit minterm 0 full 0 w;
            if not (Ps_sat.Cnf.eval cnf full) then ok := false);
        !ok)

let cnf_lift_enumeration_exact =
  Helpers.qtest "blocking + CNF lifting covers exactly the projected models"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 2 + R.int rng 6 in
      let cnf = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 10) ~max_len:3 in
      let w = 1 + R.int rng nvars in
      let proj = A.Project.of_vars (Array.init w Fun.id) in
      let s = Solver.create () in
      if not (Solver.load s cnf) then true
      else begin
        let lift = A.Cnf_lift.make cnf proj in
        let r = A.Blocking.enumerate ~lift s proj in
        (* reference: projected models by brute force *)
        let expected = Hashtbl.create 64 in
        List.iter
          (fun m ->
            Hashtbl.replace expected (Array.to_list (Array.sub m 0 w)) ())
          (Ps_sat.Cnf.brute_force_models cnf);
        let ok = ref true in
        Helpers.iter_assignments w (fun bits ->
            let bits = Array.sub bits 0 w in
            let covered =
              List.exists (fun cb -> Cube.contains cb bits) r.A.Run.cubes
            in
            if covered <> Hashtbl.mem expected (Array.to_list bits) then ok := false);
        !ok
      end)

(* --- Cube_set ------------------------------------------------------------------ *)

let test_cube_set_basic () =
  let cubes = List.map Cube.of_string [ "1-0"; "1--"; "1-0" ] in
  let reduced = A.Cube_set.reduce cubes in
  check_int "subsumed removed" 1 (List.length reduced);
  Alcotest.(check string) "survivor" "1--" (Cube.to_string (List.hd reduced));
  (* merging: 10- and 11- combine to 1-- *)
  let merged = A.Cube_set.merge_pass (List.map Cube.of_string [ "10-"; "11-" ]) in
  check_int "merged" 1 (List.length merged);
  Alcotest.(check string) "merge result" "1--" (Cube.to_string (List.hd merged))

let cube_set_preserves_union =
  Helpers.qtest "minimize preserves the union and never grows" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let w = 1 + R.int rng 6 in
      let cubes =
        List.init (1 + R.int rng 8) (fun _ ->
            Cube.of_string (String.init w (fun _ -> R.pick rng [ '0'; '1'; '-' ])))
      in
      let minimized = A.Cube_set.minimize cubes in
      A.Cube_set.equal_union w cubes minimized
      && List.length minimized <= List.length (List.sort_uniq Cube.compare cubes))

let test_cube_set_full_cover () =
  (* the 2^k minterms of k vars minimize to the single universal cube *)
  let w = 4 in
  let minterms = ref [] in
  Helpers.iter_assignments w (fun bits ->
      minterms := Cube.of_assignment (Array.sub bits 0 w) :: !minterms);
  let minimized = A.Cube_set.minimize !minterms in
  check_int "all minterms collapse" 1 (List.length minimized);
  check_int "to the universal cube" 0 (Cube.num_fixed (List.hd minimized))

(* --- Universal preimage ------------------------------------------------------------ *)

let universal_matches_brute_force =
  Helpers.qtest "universal preimage = forall-input oracle" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let ninputs = List.length (N.inputs c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.5 rng in
      let r = Uni.preimage c target in
      let ok = ref true in
      Helpers.iter_assignments nstate (fun bits ->
          let s = Array.sub bits 0 nstate in
          (* oracle: all inputs lead into the target *)
          let all_in = ref true in
          for icode = 0 to (1 lsl ninputs) - 1 do
            let inputs = Array.init ninputs (fun j -> (icode lsr j) land 1 = 1) in
            let _, next = Sim.step c ~inputs ~state:s in
            if not (T.mem target next) then all_in := false
          done;
          if Uni.mem r s <> !all_in then ok := false);
      !ok)

let test_universal_vs_existential () =
  (* universal ⊆ existential; on an input-free circuit they coincide *)
  let c = Ps_gen.Counters.johnson ~bits:6 () in
  let target = T.upper_half ~bits:6 in
  let uni = Uni.preimage c target in
  let exi = E.run E.Sds (I.make c target) in
  check_float "input-free: forall = exists" exi.E.solutions uni.Uni.count

(* --- Image / forward reachability ---------------------------------------------------- *)

let test_image_counter () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let t = Img.create c in
  (* image of {5}: {5 (hold), 6 (count)} *)
  let s5 = Img.of_cubes t (T.value ~bits:4 5) in
  let img = Img.image t s5 in
  check_bool "6 reachable" true (B.eval img [| false; true; true; false |]);
  check_bool "5 stays" true (B.eval img [| true; false; true; false |]);
  check_bool "7 not" false (B.eval img [| true; true; true; false |]);
  (* forward reach from 0 covers everything *)
  let r = Img.forward_reach t ~init:(T.value ~bits:4 0) in
  check_float "full space" 16.0 r.Img.total_states;
  check_bool "fixpoint" true r.Img.fixpoint

let forward_backward_duality =
  Helpers.qtest "forward reach meets target iff init in backward reach" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let init_bits = Array.init nstate (fun _ -> R.bool rng) in
      let init_code =
        Array.to_list init_bits
        |> List.mapi (fun i b -> if b then 1 lsl i else 0)
        |> List.fold_left ( + ) 0
      in
      let init = T.value ~bits:nstate init_code in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.6 rng in
      let t = Img.create c in
      let fwd = Img.forward_reach t ~init in
      let hits_target = Img.intersects t fwd.Img.reached (Img.of_cubes t target) in
      let bwd = Rh.backward ~engine:Rh.E_bdd c target in
      hits_target = Rh.mem bwd init_bits)

(* --- Reach.trace ------------------------------------------------------------------------ *)

let test_trace_counter () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let r = Rh.backward c (T.all_ones ~bits:4) in
  (* from state 12: minimal trace = 3 increments *)
  let from = [| false; false; true; true |] in
  match Rh.trace r c ~from with
  | None -> Alcotest.fail "state should be in the reached set"
  | Some inputs ->
    check_int "minimal length" 3 (List.length inputs);
    (* replay confirms arrival *)
    let s = ref from in
    List.iter
      (fun iv ->
        let _, next = Sim.step c ~inputs:iv ~state:!s in
        s := next)
      inputs;
    Alcotest.(check (array bool)) "arrives at target" [| true; true; true; true |] !s

let test_trace_already_there () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  let r = Rh.backward c (T.all_ones ~bits:3) in
  match Rh.trace r c ~from:[| true; true; true |] with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "expected empty trace"
  | None -> Alcotest.fail "target state must be reached"

(* Explicit-state oracle: the fewest steps from a state into [target], by
   breadth-first search over [Sim.step] on every state x input vector;
   [max_int] when no input sequence gets there. *)
let shortest_distances c target =
  let nstate = List.length (N.latches c) and nin = List.length (N.inputs c) in
  let bits_of n code = Array.init n (fun i -> (code lsr i) land 1 = 1) in
  let code_of bits = Array.fold_right (fun b acc -> (2 * acc) + Bool.to_int b) bits 0 in
  let succ =
    Array.init (1 lsl nstate) (fun s ->
        List.init (1 lsl nin) (fun iv ->
            let _, next = Sim.step c ~inputs:(bits_of nin iv) ~state:(bits_of nstate s) in
            code_of next))
  in
  let dist =
    Array.init (1 lsl nstate) (fun s ->
        if T.mem target (bits_of nstate s) then 0 else max_int)
  in
  let rec layer d =
    let grew = ref false in
    Array.iteri
      (fun s nexts ->
        if dist.(s) = max_int && List.exists (fun n -> dist.(n) = d) nexts then begin
          dist.(s) <- d + 1;
          grew := true
        end)
      succ;
    if !grew then layer (d + 1)
  in
  layer 0;
  fun state -> dist.(code_of state)

let trace_replays_correctly =
  Helpers.qtest "extracted traces replay into the target" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.6 rng in
      let r = Rh.backward c target in
      let distance = shortest_distances c target in
      let ok = ref true in
      Helpers.iter_assignments nstate (fun bits ->
          let from = Array.sub bits 0 nstate in
          let d = distance from in
          match Rh.trace r c ~from with
          | None -> if Rh.mem r from || d <> max_int then ok := false
          | Some inputs ->
            (* a trace is as short as any input sequence into the target *)
            if List.length inputs <> d then ok := false;
            let s = ref from in
            List.iter
              (fun iv ->
                let _, next = Sim.step c ~inputs:iv ~state:!s in
                s := next)
              inputs;
            if not (T.mem target !s) then ok := false);
      !ok)

let () =
  Alcotest.run "frames"
    [
      ( "aig",
        [
          Alcotest.test_case "simplifications" `Quick test_aig_simplifications;
          aig_matches_netlist;
          Alcotest.test_case "structural sharing" `Quick test_aig_smaller_than_gates;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "semantics" `Quick test_unroll_semantics;
          Alcotest.test_case "errors" `Quick test_unroll_errors;
        ] );
      ( "kstep",
        [
          Alcotest.test_case "k=1 = one-step" `Quick test_kstep_equals_one_step;
          kstep_equals_iterated;
          Alcotest.test_case "engines agree" `Quick test_kstep_engines_agree;
        ] );
      ("cnf_lift", [ cnf_lift_sound; cnf_lift_enumeration_exact ]);
      ( "cube_set",
        [
          Alcotest.test_case "basic" `Quick test_cube_set_basic;
          cube_set_preserves_union;
          Alcotest.test_case "full cover" `Quick test_cube_set_full_cover;
        ] );
      ( "universal",
        [
          universal_matches_brute_force;
          Alcotest.test_case "input-free coincidence" `Quick
            test_universal_vs_existential;
        ] );
      ( "image",
        [
          Alcotest.test_case "counter image" `Quick test_image_counter;
          forward_backward_duality;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counter trace" `Quick test_trace_counter;
          Alcotest.test_case "already in target" `Quick test_trace_already_there;
          trace_replays_correctly;
        ] );
    ]
