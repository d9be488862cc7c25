(* Tests for the preimage core: instance construction, the four SAT
   engines, the BDD baseline, the cross-check oracles, and backward
   reachability — validated against exhaustive simulation. *)

module I = Preimage.Instance
module E = Preimage.Engine
module BE = Preimage.Bdd_engine
module Ch = Preimage.Check
module Rh = Preimage.Reach
module N = Ps_circuit.Netlist
module Cube = Ps_allsat.Cube
module Sg = Ps_allsat.Solution_graph
module T = Ps_gen.Targets
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.0))

(* --- Instance ----------------------------------------------------------- *)

let test_instance_validation () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  (try
     ignore (I.make c [ Cube.of_string "1-" ]);
     Alcotest.fail "expected width-mismatch failure"
   with Invalid_argument _ -> ());
  (try
     ignore (I.make c []);
     Alcotest.fail "expected empty-target failure"
   with Invalid_argument _ -> ());
  (* combinational circuit: no latches *)
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  Ps_circuit.Builder.output b (Ps_circuit.Builder.not_ b x);
  let comb = Ps_circuit.Builder.finalize b in
  (try
     ignore (I.make comb [ Cube.make 0 ]);
     Alcotest.fail "expected no-latches failure"
   with Invalid_argument _ -> ())

let test_instance_structure () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  let inst = I.make c (T.all_ones ~bits:3) in
  check_int "projection width = state bits" 3
    (Ps_allsat.Project.width inst.I.proj);
  check_int "num_state" 3 (I.num_state inst);
  check_bool "augmented has more gates" true
    (N.num_gates inst.I.augmented > N.num_gates c);
  check_bool "root is a gate" true
    (match N.driver inst.I.augmented inst.I.root with
    | N.Gate _ -> true
    | N.Input | N.Latch _ -> false);
  (* with inputs: projection covers states then inputs *)
  let inst2 = I.make ~include_inputs:true c (T.all_ones ~bits:3) in
  check_int "projection with inputs" 4 (Ps_allsat.Project.width inst2.I.proj)

let test_instance_multi_cube_target () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  let inst = I.make c (T.of_strings [ "111"; "000" ]) in
  (* engines agree *)
  let results = List.map (fun m -> E.run m inst) E.all_methods in
  match Ch.engines_agree inst results with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- Engines ------------------------------------------------------------- *)

let engines_agree_on_suite () =
  List.iter
    (fun entry ->
      let c = Lazy.force entry.Ps_gen.Suite.circuit in
      let nstate = List.length (N.latches c) in
      let ninputs = List.length (N.inputs c) in
      if nstate + ninputs <= 14 then begin
        let rng = R.create ~seed:7 in
        let targets =
          [ Ps_gen.Suite.default_target entry; Ps_gen.Suite.tight_target entry ]
          @ [ T.random ~bits:nstate ~ncubes:2 ~density:0.4 rng ]
        in
        List.iter
          (fun target ->
            let inst = I.make c target in
            let results = List.map (fun m -> E.run m inst) E.all_methods in
            (match Ch.engines_agree inst results with
            | Ok _ -> ()
            | Error e ->
              Alcotest.fail (entry.Ps_gen.Suite.name ^ ": " ^ e));
            List.iter
              (fun r ->
                if not (Ch.matches_brute_force inst r) then
                  Alcotest.fail
                    (entry.Ps_gen.Suite.name ^ "/" ^ E.method_name r.E.method_
                   ^ ": brute-force mismatch"))
              results)
          targets
      end)
    Ps_gen.Suite.small

let engines_agree_random =
  Helpers.qtest "engines agree on random sequential circuits" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 3) ~nlatches:(2 + R.int rng 4)
          ~ngates:(3 + R.int rng 20)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:(1 + R.int rng 2) ~density:0.5 rng in
      let inst = I.make c target in
      let results = List.map (fun m -> E.run m inst) E.all_methods in
      (match Ch.engines_agree inst results with Ok _ -> true | Error _ -> false)
      && List.for_all (fun r -> Ch.matches_brute_force inst r) results)

let engines_agree_with_inputs =
  Helpers.qtest "engines agree when projecting over states and inputs" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 12)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.6 rng in
      let inst = I.make ~include_inputs:true c target in
      let results = List.map (fun m -> E.run m inst) E.all_methods in
      match Ch.engines_agree inst results with Ok _ -> true | Error _ -> false)

let test_engine_limit () =
  let c = Ps_gen.Counters.binary ~bits:6 () in
  (* loose target: many solutions *)
  let inst = I.make c (T.upper_half ~bits:6) in
  let r = E.run ~limit:3 E.Blocking inst in
  check_int "limited cubes" 3 r.E.n_cubes;
  check_bool "incomplete" false (E.complete r);
  check_bool "stop reason" true (E.stopped r = `CubeLimit);
  (* the cube cap now applies uniformly, SDS included *)
  let full = E.run E.Sds inst in
  check_bool "premise: more than 3 disjoint cubes" true (full.E.n_cubes > 3);
  let r2 = E.run ~limit:3 E.Sds inst in
  check_bool "sds stopped on the cap" true (E.stopped r2 = `CubeLimit);
  check_bool "sds partial" false (E.complete r2);
  check_bool "sds partial cubes non-empty" true (E.cubes r2 <> [])

let test_solution_count_of_cubes () =
  (* overlapping cubes: 1-- and -1- over width 3: |union| = 4+4-2 = 6 *)
  check_float "overlap resolved" 6.0
    (E.solution_count_of_cubes 3 [ Cube.of_string "1--"; Cube.of_string "-1-" ]);
  check_float "empty" 0.0 (E.solution_count_of_cubes 3 []);
  check_float "full" 8.0 (E.solution_count_of_cubes 3 [ Cube.make 3 ])

let test_sds_stats_shape () =
  let c = Ps_gen.Counters.binary ~bits:5 () in
  let inst = I.make c (T.upper_half ~bits:5) in
  let r = E.run E.Sds inst in
  let get k = Ps_util.Stats.get (E.stats r) k in
  check_bool "search nodes" true (get "search_nodes" > 0);
  check_bool "graph nodes recorded" true (get "graph_nodes" > 0);
  check_bool "graph present" true (E.graph r <> None);
  check_bool "graph nodes consistent" true
    (match (E.graph r, r.E.graph_nodes) with
    | Some g, Some n -> Sg.size g = n
    | _ -> false)

let orders_preserve_solutions =
  Helpers.qtest "projection orders change the search, not the solutions" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 4)
          ~ngates:(3 + R.int rng 15)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.5 rng in
      List.for_all
        (fun order ->
          let inst = I.make ~order c target in
          let results = List.map (fun m -> E.run m inst) E.all_methods in
          (match Ch.engines_agree inst results with
          | Ok _ -> true
          | Error _ -> false)
          && List.for_all (fun r -> Ch.matches_brute_force inst r) results)
        [ I.Natural; I.Cone_first; I.Reverse ])

(* --- BDD engine ------------------------------------------------------------ *)

let test_bdd_engine_counts () =
  let c = Ps_gen.Counters.binary ~bits:6 () in
  let inst = I.make c (T.upper_half ~bits:6) in
  let r_sat = E.run E.Sds inst in
  let r_bdd = BE.run inst in
  check_float "bdd count = sds count" r_sat.E.solutions
    (BE.count r_bdd ~nstate:6);
  check_bool "nodes allocated" true (r_bdd.BE.nodes_allocated > 0);
  check_bool "preimage size sane" true (r_bdd.BE.preimage_size >= 1)

let test_bdd_engine_include_inputs () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let inst = I.make ~include_inputs:true c (T.all_ones ~bits:4) in
  let r_block = E.run E.Blocking inst in
  let r_bdd = BE.run inst in
  (* count over states+inputs: 5 projection vars *)
  check_float "pair count" r_block.E.solutions (BE.count r_bdd ~nstate:5)

(* The engine builds function BDDs for the next-state cone only: an
   output-only gate cone leaves the preimage and the manager unchanged. *)
let test_bdd_engine_next_state_cone () =
  let c = Ps_gen.Counters.binary ~bits:6 () in
  let b = Ps_circuit.Builder.of_netlist c in
  let parity = Ps_circuit.Builder.xor_ b (N.latches c @ N.inputs c) in
  Ps_circuit.Builder.output b
    (Ps_circuit.Builder.or_ b [ parity; List.hd (N.latches c) ]);
  let with_output = Ps_circuit.Builder.finalize b in
  let target = T.upper_half ~bits:6 in
  let r = BE.run (I.make c target) in
  let r' = BE.run (I.make with_output target) in
  let cubes (r : BE.result) =
    List.map Cube.to_string
      (Ps_allsat.Cube_set.of_bdd r.BE.preimage
         ~width:(Ps_bdd.Bdd.nvars r.BE.man))
  in
  Alcotest.(check (list string)) "preimage" (cubes r) (cubes r');
  check_int "nodes allocated" r.BE.nodes_allocated r'.BE.nodes_allocated

(* The engine computes the exhaustive one-step preimage on the suite
   circuits with at most 18 state and input bits. *)
let test_bdd_engine_vs_brute_force () =
  List.iter
    (fun entry ->
      let c = Lazy.force entry.Ps_gen.Suite.circuit in
      let nstate = List.length (N.latches c) in
      let ninputs = List.length (N.inputs c) in
      if nstate + ninputs <= 18 then
        List.iter
          (fun target ->
            let expected = Ch.brute_force_preimage c target in
            let r = BE.run (I.make c target) in
            let bits = Array.make (Ps_bdd.Bdd.nvars r.BE.man) false in
            Array.iteri
              (fun code want ->
                for i = 0 to nstate - 1 do
                  bits.(i) <- (code lsr i) land 1 = 1
                done;
                if Ps_bdd.Bdd.eval r.BE.preimage bits <> want then
                  Alcotest.failf "%s: state %d" entry.Ps_gen.Suite.name code)
              expected)
          [ Ps_gen.Suite.default_target entry; Ps_gen.Suite.tight_target entry ])
    Ps_gen.Suite.all

(* --- Check ------------------------------------------------------------------ *)

let test_check_detects_corruption () =
  let c = Ps_gen.Counters.binary ~bits:3 () in
  let inst = I.make c (T.all_ones ~bits:3) in
  let good = E.run E.Blocking inst in
  (* corrupt the result by dropping a cube *)
  let bad =
    match E.cubes good with
    | _ :: rest ->
      { good with E.run = { good.E.run with Ps_allsat.Run.cubes = rest } }
    | [] -> Alcotest.fail "expected non-empty preimage"
  in
  (match Ch.engines_agree inst [ good; bad ] with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error _ -> ());
  check_bool "brute force catches it too" false (Ch.matches_brute_force inst bad)

let test_brute_force_preimage_small () =
  (* 2-bit counter, target = state 3; preimage = {2 with en, 3 with !en} *)
  let c = Ps_gen.Counters.binary ~bits:2 () in
  let pre = Ch.brute_force_preimage c (T.value ~bits:2 3) in
  Alcotest.(check (array bool)) "preimage" [| false; false; true; true |] pre

(* --- Reach -------------------------------------------------------------------- *)

let all_reach_engines =
  [ Rh.E_sds; Rh.E_sds_dynamic; Rh.E_blocking_lift; Rh.E_bdd; Rh.E_incremental ]

(* A purely combinational netlist: one input, no latches. *)
let comb_free () =
  let b = Ps_circuit.Builder.create () in
  let x = Ps_circuit.Builder.input b "x" in
  Ps_circuit.Builder.output b x;
  Ps_circuit.Builder.finalize b

let test_reach_no_latches () =
  List.iter
    (fun engine ->
      Alcotest.check_raises (Rh.engine_name engine)
        (Invalid_argument "reachability: circuit has no latches")
        (fun () -> ignore (Rh.backward ~engine (comb_free ()) [ Cube.make 1 ])))
    all_reach_engines

(* A traced rebuild-per-frame fixpoint carries each frame's engine
   events between that frame's [frame_start] and [frame_done]: on
   count8's upper half, SDS solves and reuses subgraphs. *)
let test_reach_rebuild_trace () =
  let module Trace = Ps_util.Trace in
  let c = Ps_gen.Counters.binary ~bits:8 () in
  let open_frame = ref false in
  let frames = ref 0 and solves = ref 0 and memo_hits = ref 0 in
  let stopped = ref 0 and outside = ref 0 in
  let trace =
    Trace.callback (fun ~time_s:_ ev ->
        match ev with
        | Trace.Frame_start _ -> open_frame := true
        | Trace.Frame_done _ ->
          incr frames;
          open_frame := false
        | _ ->
          if not !open_frame then incr outside;
          (match ev with
           | Trace.Solve _ -> incr solves
           | Trace.Memo_hit _ -> incr memo_hits
           | Trace.Stopped _ -> incr stopped
           | _ -> ()))
  in
  let r = Rh.backward ~engine:Rh.E_sds ~trace c (T.upper_half ~bits:8) in
  check_int "one frame_done per step" (List.length r.Rh.steps) !frames;
  check_bool "solve events" true (!solves > 0);
  check_bool "memo_hit events" true (!memo_hits > 0);
  check_int "one stopped per frame" !frames !stopped;
  check_int "engine events inside their frame" 0 !outside

(* The session against a rebuild engine on 16-bit suite circuits, in both
   regimes: narrow frontiers (one state per frame, 48 frames, against
   SDS) and wide ones (upper-half targets to fixpoint, against
   blocking-lift). Steps, fixpoint and reached set must agree. *)
let test_session_matches_rebuild_16bit () =
  let suite name = Lazy.force (Ps_gen.Suite.find name).Ps_gen.Suite.circuit in
  List.iter
    (fun (name, target, engine, max_steps) ->
      let c = suite name in
      let base = Rh.backward ~engine ~max_steps c target in
      let inc = Rh.backward ~engine:Rh.E_incremental ~max_steps c target in
      let key (s : Rh.step) =
        (s.Rh.index, s.Rh.frontier_states, s.Rh.total_states, s.Rh.frontier_cubes)
      in
      check_bool (name ^ ": same steps") true
        (List.map key base.Rh.steps = List.map key inc.Rh.steps);
      check_bool (name ^ ": same fixpoint") base.Rh.fixpoint inc.Rh.fixpoint;
      let cubes r = Ps_allsat.Cube_set.of_bdd r.Rh.reached ~width:16 in
      check_bool (name ^ ": same reached set") true (cubes base = cubes inc))
    [
      ("count16", T.value ~bits:16 0, Rh.E_sds, 48);
      ("lfsr16", T.value ~bits:16 1, Rh.E_sds, 48);
      ("johnson16", T.upper_half ~bits:16, Rh.E_blocking_lift, 1000);
      ("lfsr16", T.upper_half ~bits:16, Rh.E_blocking_lift, 1000);
    ]

let test_reach_counter_full () =
  (* enabled counter eventually reaches all-ones from any state *)
  let c = Ps_gen.Counters.binary ~bits:4 () in
  List.iter
    (fun engine ->
      let r = Rh.backward ~engine c (T.all_ones ~bits:4) in
      check_float
        (Rh.engine_name engine ^ " reaches the full space")
        16.0 r.Rh.total_states;
      check_bool "fixpoint" true r.Rh.fixpoint)
    all_reach_engines

let test_reach_max_steps () =
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let r = Rh.backward ~max_steps:2 c (T.all_ones ~bits:4) in
  check_bool "not a fixpoint" false r.Rh.fixpoint;
  check_int "two steps" 2 (List.length r.Rh.steps)

let test_reach_closed_target () =
  (* Johnson counter: the all-zero state maps to 1000...; target
     containing every state is closed immediately. *)
  let c = Ps_gen.Counters.johnson ~bits:4 () in
  let full = [ Cube.make 4 ] in
  let r = Rh.backward c full in
  check_bool "fixpoint" true r.Rh.fixpoint;
  check_float "everything" 16.0 r.Rh.total_states;
  (* one step discovers nothing new *)
  check_int "steps" 1 (List.length r.Rh.steps)

let reach_engines_agree =
  Helpers.qtest "reach engines compute identical fixpoints" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 12)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.7 rng in
      let r1 = Rh.backward ~engine:Rh.E_sds c target in
      let r2 = Rh.backward ~engine:Rh.E_bdd c target in
      let r3 = Rh.backward ~engine:Rh.E_blocking_lift c target in
      let r4 = Rh.backward ~engine:Rh.E_sds_dynamic c target in
      let r5 = Rh.backward ~engine:Rh.E_incremental c target in
      let same_pointwise a b =
        let ok = ref true in
        Helpers.iter_assignments nstate (fun bits ->
            let bits = Array.sub bits 0 nstate in
            if Rh.mem a bits <> Rh.mem b bits then ok := false);
        !ok
      in
      r1.Rh.total_states = r2.Rh.total_states
      && r2.Rh.total_states = r3.Rh.total_states
      && r3.Rh.total_states = r4.Rh.total_states
      && r4.Rh.total_states = r5.Rh.total_states
      && same_pointwise r1 r2 && same_pointwise r2 r3 && same_pointwise r3 r4
      && same_pointwise r4 r5)

let test_reach_membership_vs_simulation () =
  (* Forward simulation confirms backward reachability: any state in the
     reached set can actually reach the target by some input sequence
     within |steps| cycles. Check on the traffic controller. *)
  let c = Ps_gen.Fsm.traffic () in
  let target = T.of_strings [ "0111" ] in
  let r = Rh.backward c target in
  let depth = List.length r.Rh.steps in
  let nstate = 4 in
  (* BFS forward over (state) with all 4 input combinations *)
  let can_reach s0 =
    let seen = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add (s0, 0) q;
    let found = ref false in
    while not (Queue.is_empty q) do
      let s, d = Queue.pop q in
      if T.mem target s then found := true
      else if d < depth && not (Hashtbl.mem seen (Array.to_list s)) then begin
        Hashtbl.add seen (Array.to_list s) ();
        for code = 0 to 3 do
          let inputs = [| code land 1 = 1; code land 2 = 2 |] in
          let _, next = Ps_circuit.Sim.step c ~inputs ~state:s in
          Queue.add (next, d + 1) q
        done
      end
    done;
    !found
  in
  Helpers.iter_assignments nstate (fun bits ->
      let s = Array.sub bits 0 nstate in
      if Rh.mem r s <> can_reach s then
        Alcotest.fail "reach set disagrees with forward simulation")

(* The Kstep time-frame unrolling is an independent oracle for the
   fixpoint: states within backward distance n = target ∪ (union of the
   exact-i-step preimages for i = 1..n). Checked against the last layer
   of a [~max_steps:n] run, for both the rebuild-per-frame and the
   incremental session path. *)
let reach_matches_kstep_union =
  Helpers.qtest "reach layers = union of kstep preimages" ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let c =
        Helpers.random_seq rng ~nin:(1 + R.int rng 2) ~nlatches:(2 + R.int rng 3)
          ~ngates:(3 + R.int rng 10)
      in
      let nstate = List.length (N.latches c) in
      let target = T.random ~bits:nstate ~ncubes:1 ~density:0.7 rng in
      let n = 1 + R.int rng 3 in
      let check_mode engine =
        let r = Rh.backward ~engine ~max_steps:n c target in
        let module B = Ps_bdd.Bdd in
        let man = r.Rh.man in
        let target_bdd =
          List.fold_left
            (fun acc cu -> B.bor acc (B.cube man (Cube.to_list cu)))
            (B.zero man) target
        in
        let kstep_union =
          List.fold_left
            (fun acc i ->
              let k = Preimage.Kstep.preimage c target ~k:i in
              B.bor acc
                (Preimage.Check.result_bdd man k.Preimage.Kstep.run ~width:nstate))
            target_bdd
            (List.init n (fun i -> i + 1))
        in
        let last_layer = List.nth r.Rh.layers (List.length r.Rh.layers - 1) in
        B.equal kstep_union last_layer
      in
      check_mode Rh.E_sds && check_mode Rh.E_incremental)

(* Regression for the per-frame blocking discipline: the session blocks
   only the states a frame discovers, so the blocking work per frame
   tracks the frontier — never the accumulated reached set. On the
   counter, every frame finds exactly one new state while the reached
   set grows to 256: any re-blocking of the full set would show up as a
   growing per-frame clause count. *)
let test_reach_inc_blocking_constant () =
  let module RI = Preimage.Reach_inc in
  let c = Ps_gen.Counters.binary ~bits:8 () in
  let r = RI.run c (T.value ~bits:8 0) in
  check_bool "fixpoint" true r.RI.fixpoint;
  check_float "reaches everything" 256.0 r.RI.total_states;
  List.iter
    (fun (f : RI.frame) ->
      check_int
        (Printf.sprintf "frame %d blocks only its own discoveries" f.RI.index)
        f.RI.new_cubes f.RI.blocking_clauses;
      if f.RI.new_cubes > 0 then
        check_int
          (Printf.sprintf "frame %d: counter frontier is one state" f.RI.index)
          1 f.RI.blocking_clauses)
    r.RI.frames;
  (* the deep frames inherit learnt clauses from the shallow ones *)
  let last = List.nth r.RI.frames (List.length r.RI.frames - 1) in
  check_bool "learnts carried to the last frame" true (last.RI.learnts_start > 0);
  check_bool "retirements kept learnts" true
    (Ps_util.Stats.get r.RI.solver_stats "learnts_kept" > 0);
  let st = r.RI.solver_stats in
  check_int "one group per frame, all retired"
    (List.length r.RI.frames)
    (Ps_util.Stats.get st "groups_retired");
  check_int "no group left live" 0 (Ps_util.Stats.get st "groups_live")

(* The session lifts every model into a state cube by circuit
   justification. On wide frontiers one cube covers many states, so the
   blocking clauses summed over all frames must stay far below the number
   of reached states (a minterm-per-model session would block every
   non-target state once). The reached set itself must still be the
   baseline's. On the counter lifting cannot widen anything: see
   [test_reach_inc_blocking_constant], one clause per frame. *)
let test_reach_inc_lifts_cubes () =
  let module RI = Preimage.Reach_inc in
  List.iter
    (fun name ->
      let c = Lazy.force (Ps_gen.Suite.find name).Ps_gen.Suite.circuit in
      let target = T.upper_half ~bits:8 in
      let r = RI.run c target in
      let baseline = Rh.backward ~engine:Rh.E_bdd c target in
      check_bool (name ^ ": fixpoint") true r.RI.fixpoint;
      let differs s =
        let bits = Array.init 8 (fun i -> (s lsr i) land 1 = 1) in
        Ps_bdd.Bdd.eval baseline.Rh.reached bits <> Ps_bdd.Bdd.eval r.RI.reached bits
      in
      check_int (name ^ ": states reached unlike the baseline") 0
        (List.length (List.filter differs (List.init 256 Fun.id)));
      let clauses =
        List.fold_left (fun acc (f : RI.frame) -> acc + f.RI.blocking_clauses) 0
          r.RI.frames
      in
      check_bool
        (Printf.sprintf "%s: %d blocking clauses <= %g reached / 4" name clauses
           r.RI.total_states)
        true
        (4.0 *. float_of_int clauses <= r.RI.total_states))
    [ "johnson8"; "lfsr8" ]

let test_reach_inc_session_stepwise () =
  (* Driving frames by hand matches the packaged run. *)
  let module RI = Preimage.Reach_inc in
  let c = Ps_gen.Counters.binary ~bits:4 () in
  let target = T.all_ones ~bits:4 in
  let s = RI.create c target in
  let frames = ref 0 in
  while RI.frame s do incr frames done;
  check_bool "fixpoint" true (RI.fixpoint_reached s);
  let r = RI.result s in
  check_int "frames counted" !frames (List.length r.RI.frames);
  check_float "full space" 16.0 r.RI.total_states;
  let packaged = RI.run c target in
  check_int "same frame count" (List.length packaged.RI.frames)
    (List.length r.RI.frames);
  check_float "same states" packaged.RI.total_states r.RI.total_states;
  Alcotest.check_raises "no latches"
    (Invalid_argument "reachability: circuit has no latches")
    (fun () -> ignore (RI.create (comb_free ()) [ Cube.make 1 ]))

let () =
  Alcotest.run "preimage_core"
    [
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "structure" `Quick test_instance_structure;
          Alcotest.test_case "multi-cube target" `Quick test_instance_multi_cube_target;
        ] );
      ( "engines",
        [
          Alcotest.test_case "suite cross-check" `Slow engines_agree_on_suite;
          engines_agree_random;
          engines_agree_with_inputs;
          orders_preserve_solutions;
          Alcotest.test_case "cube limit" `Quick test_engine_limit;
          Alcotest.test_case "union counting" `Quick test_solution_count_of_cubes;
          Alcotest.test_case "sds stats shape" `Quick test_sds_stats_shape;
        ] );
      ( "bdd_engine",
        [
          Alcotest.test_case "counts" `Quick test_bdd_engine_counts;
          Alcotest.test_case "include inputs" `Quick test_bdd_engine_include_inputs;
          Alcotest.test_case "next-state cone only" `Quick
            test_bdd_engine_next_state_cone;
          Alcotest.test_case "preimage = brute force on the suite" `Quick
            test_bdd_engine_vs_brute_force;
        ] );
      ( "check",
        [
          Alcotest.test_case "detects corruption" `Quick test_check_detects_corruption;
          Alcotest.test_case "brute-force reference" `Quick test_brute_force_preimage_small;
        ] );
      ( "reach",
        [
          Alcotest.test_case "counter reaches all" `Quick test_reach_counter_full;
          Alcotest.test_case "max steps" `Quick test_reach_max_steps;
          Alcotest.test_case "closed target" `Quick test_reach_closed_target;
          reach_engines_agree;
          Alcotest.test_case "agrees with forward simulation" `Slow
            test_reach_membership_vs_simulation;
          reach_matches_kstep_union;
          Alcotest.test_case "no latches: every engine" `Quick
            test_reach_no_latches;
          Alcotest.test_case "rebuild frames trace their engine" `Quick
            test_reach_rebuild_trace;
          Alcotest.test_case "session = rebuild on 16-bit suite circuits"
            `Quick test_session_matches_rebuild_16bit;
        ] );
      ( "reach_inc",
        [
          Alcotest.test_case "per-frame blocking stays frontier-sized" `Quick
            test_reach_inc_blocking_constant;
          Alcotest.test_case "wide frontiers block lifted cubes" `Quick
            test_reach_inc_lifts_cubes;
          Alcotest.test_case "stepwise session = packaged run" `Quick
            test_reach_inc_session_stepwise;
        ] );
    ]
