(* Differential all-SAT oracle suite.

   Hundreds of seeded random instances, five families:

   - random sequential netlists (Ps_gen.Random_seq) turned into preimage
     instances: all five SAT engines plus the BDD baseline must agree
     (BDD equality via Check.engines_agree), match the brute-force
     truth-table oracle when the cone is small enough, and produce the
     same canonicalized (minterm-expanded) solution set;

   - random CNF / projection pairs (Ps_util.Rng-driven), plus formulas
     dense in solutions on every fourth seed: blocking enumeration —
     sequential and guiding-path parallel — against a brute-force
     truth-table enumerator over all total assignments, as pairwise
     disjoint minterms;

   - lifted covers: circuit justification through the blocking-lift
     engine and CNF lifting, sequential and sharded, must give pairwise
     disjoint cubes whose union is the truth table, also over
     projections that repeat a variable;

   - certification: Verify.run on small random CNF / projection pairs
     against the truth table, for the exact minterm cover, the disjoint
     lifted cover, a lifted cover with overlapping cubes, covers with a
     solution dropped (the witness must be a missed solution) and a
     cover with a cube that holds no solution (it must be the only
     culprit), also over projections that repeat a variable;

   - backward-reachability fixpoints: the incremental session
     (Reach_inc: one solver, retractable frame groups) and the BDD
     engine (one transition context for the whole fixpoint) against the
     SDS rebuild-per-frame baseline — layers, fixpoint flag and every
     per-step statistic must be bit-identical — and the baseline against
     an explicit-state BFS.

   The netlist families are {e shrinking}: a failing random instance is
   greedily minimized (fewer gates, fewer inputs/latches, fewer/looser
   target cubes — while the mismatch persists) and reported as a
   reproducible OCaml literal, so a differential failure arrives already
   reduced instead of as a 60-gate haystack.

   Every check message carries the instance seed, so a failure is
   reproducible in isolation. Set PS_DIFF_LONG=1 for the extended sweep
   (more seeds, bigger cones). *)

module I = Preimage.Instance
module E = Preimage.Engine
module Ch = Preimage.Check
module A = Ps_allsat
module Cube = A.Cube
module Cnf = Ps_sat.Cnf
module Solver = Ps_sat.Solver
module R = Ps_util.Rng

let long = Sys.getenv_opt "PS_DIFF_LONG" <> None

let n_circuit_seeds = if long then 360 else 120
let n_cnf_seeds = if long then 240 else 80
let n_reach_seeds = if long then 500 else 200

(* Canonical solution set: sorted minterm strings over the projection. *)
let minterm_set width cubes =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun c ->
      Cube.iter_minterms c (fun bits ->
          let s =
            String.init width (fun i -> if bits.(i) then '1' else '0')
          in
          Hashtbl.replace tbl s ()))
    cubes;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* --- shrinkable witnesses ----------------------------------------------- *)

(* A witness fully determines a random-netlist differential instance:
   the generator spec plus the target cubes (positional notation) and
   the instance flags. Shrinking rewrites the witness — never the
   netlist directly — so every reduction step is itself reproducible
   from the printed literal. *)
type witness = {
  w_spec : Ps_gen.Random_seq.spec;
  w_target : string list; (* cube per row, width = n_latches *)
  w_include_inputs : bool;
  w_negate : bool;
}

let witness_to_ocaml w =
  let s = w.w_spec in
  Printf.sprintf
    "{ w_spec = { Ps_gen.Random_seq.n_inputs = %d; n_latches = %d; n_gates = \
     %d; max_arity = %d; xor_share = %g; seed = %d }; w_target = [ %s ]; \
     w_include_inputs = %b; w_negate = %b }"
    s.Ps_gen.Random_seq.n_inputs s.Ps_gen.Random_seq.n_latches
    s.Ps_gen.Random_seq.n_gates s.Ps_gen.Random_seq.max_arity
    s.Ps_gen.Random_seq.xor_share s.Ps_gen.Random_seq.seed
    (String.concat "; " (List.map (Printf.sprintf "%S") w.w_target))
    w.w_include_inputs w.w_negate

let witness_circuit w = Ps_gen.Random_seq.generate w.w_spec
let witness_target w = List.map Cube.of_string w.w_target

(* Shrink candidates, most aggressive first: halve/decrement the gate
   count, drop an input or a latch (truncating the target rows with the
   latch), clear the instance flags, drop a target cube, loosen a fixed
   target literal to don't-care. All candidates respect the generator's
   minimums (>= 1 input/latch/gate, >= 1 target cube). *)
let shrink_candidates w =
  let s = w.w_spec in
  let spec_shrinks =
    List.concat
      [
        (if s.Ps_gen.Random_seq.n_gates > 1 then
           [
             { w with w_spec = { s with Ps_gen.Random_seq.n_gates = s.Ps_gen.Random_seq.n_gates / 2 } };
             { w with w_spec = { s with Ps_gen.Random_seq.n_gates = s.Ps_gen.Random_seq.n_gates - 1 } };
           ]
         else []);
        (if s.Ps_gen.Random_seq.n_inputs > 1 then
           [ { w with w_spec = { s with Ps_gen.Random_seq.n_inputs = s.Ps_gen.Random_seq.n_inputs - 1 } } ]
         else []);
        (if s.Ps_gen.Random_seq.n_latches > 1 then
           [
             {
               w with
               w_spec = { s with Ps_gen.Random_seq.n_latches = s.Ps_gen.Random_seq.n_latches - 1 };
               w_target =
                 List.map (fun t -> String.sub t 0 (String.length t - 1)) w.w_target;
             };
           ]
         else []);
      ]
  in
  let flag_shrinks =
    (if w.w_include_inputs then [ { w with w_include_inputs = false } ] else [])
    @ if w.w_negate then [ { w with w_negate = false } ] else []
  in
  let cube_drops =
    if List.length w.w_target > 1 then
      List.mapi
        (fun i _ -> { w with w_target = List.filteri (fun j _ -> j <> i) w.w_target })
        w.w_target
    else []
  in
  let literal_loosenings =
    List.concat
      (List.mapi
         (fun i t ->
           List.concat
             (List.init (String.length t) (fun j ->
                  if t.[j] = '-' then []
                  else
                    [
                      {
                        w with
                        w_target =
                          List.mapi
                            (fun i' t' ->
                              if i' = i then
                                String.mapi (fun j' c -> if j' = j then '-' else c) t'
                              else t')
                            w.w_target;
                      };
                    ])))
         w.w_target)
  in
  spec_shrinks @ flag_shrinks @ cube_drops @ literal_loosenings

(* Greedy shrink: adopt the first candidate that still fails and
   restart from it; stop at a local minimum (or after [max_checks]
   property evaluations — differential re-runs are not free). *)
let shrink ?(max_checks = 300) prop w0 msg0 =
  let checks = ref 0 in
  let rec go w msg =
    let rec try_candidates = function
      | [] -> (w, msg, true)
      | c :: rest ->
        if !checks >= max_checks then (w, msg, false)
        else begin
          incr checks;
          match prop c with
          | Some msg' -> go c msg'
          | None -> try_candidates rest
        end
    in
    let w', msg', minimal = try_candidates (shrink_candidates w) in
    (w', msg', minimal)
  in
  go w0 msg0

let fail_shrunk ~family ~seed prop w msg =
  let w', msg', minimal = shrink prop w msg in
  Alcotest.failf
    "%s seed %d: %s@\n\
     shrunk witness (%s): %s@\n\
     shrunk failure: %s"
    family seed msg
    (if minimal then "1-minimal" else "shrink budget exhausted")
    (witness_to_ocaml w') msg'

(* --- random netlist family --------------------------------------------- *)

let random_target rng ~bits =
  let ncubes = 1 + R.int rng 2 in
  List.init ncubes (fun _ ->
      let c = ref (Cube.make bits) in
      for i = 0 to bits - 1 do
        (* fix with probability 3/4: loose enough for many solutions,
           tight enough for structure *)
        match R.int rng 4 with
        | 0 -> ()
        | k ->
          c :=
            Cube.set !c i (if k land 1 = 1 then Cube.True else Cube.False)
      done;
      !c)

(* Same derivation recipe (and rng consumption order) as the historical
   corpus, now reified as a witness so failures can shrink. *)
let circuit_witness seed =
  let rng = R.create ~seed:(0x5EED + seed) in
  let n_inputs = 2 + R.int rng 3 in
  let n_latches = 3 + R.int rng 3 in
  let spec =
    {
      Ps_gen.Random_seq.n_inputs;
      n_latches;
      n_gates = 10 + R.int rng (if long then 50 else 25);
      max_arity = 3;
      xor_share = 0.2;
      seed = (seed * 7919) + 11;
    }
  in
  let target = random_target rng ~bits:n_latches in
  let include_inputs = R.int rng 3 = 0 in
  let negate = R.int rng 4 = 0 in
  {
    w_spec = spec;
    w_target = List.map Cube.to_string target;
    w_include_inputs = include_inputs;
    w_negate = negate;
  }

let instance_of_witness w =
  I.make ~include_inputs:w.w_include_inputs ~negate:w.w_negate
    (witness_circuit w) (witness_target w)

(* The engine cross-check as a property: [None] = all oracles agree. *)
let check_engines w =
  let inst = instance_of_witness w in
  let width = A.Project.width inst.I.proj in
  let exception Mismatch of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  try
    let results = List.map (fun m -> E.run m inst) E.all_methods in
    (* BDD-equality across all five engines + the BDD baseline *)
    (match Ch.engines_agree inst results with
    | Ok _ -> ()
    | Error msg -> fail "%s" msg);
    (* exhaustive truth-table oracle (states-only projections) *)
    if not inst.I.include_inputs then
      List.iter
        (fun r ->
          if not (Ch.matches_brute_force inst r) then
            fail "%s disagrees with brute force" (E.method_name r.E.method_))
        results;
    (* canonicalized cube sets agree cube-for-minterm, not just as BDDs *)
    let reference = minterm_set width (E.cubes (List.hd results)) in
    List.iter
      (fun r ->
        if minterm_set width (E.cubes r) <> reference then
          fail "%s minterm set differs from %s" (E.method_name r.E.method_)
            (E.method_name (List.hd results).E.method_))
      results;
    (* guiding-path parallel agrees with sequential for a sample method *)
    let method_ =
      List.nth E.all_methods
        (w.w_spec.Ps_gen.Random_seq.seed mod List.length E.all_methods)
    in
    let par = E.run ~jobs:2 method_ inst in
    if minterm_set width (E.cubes par) <> reference then
      fail "parallel %s minterm set differs" (E.method_name method_);
    None
  with Mismatch m -> Some m

let run_circuit_seed seed =
  let w = circuit_witness seed in
  match check_engines w with
  | None -> ()
  | Some msg -> fail_shrunk ~family:"circuit" ~seed check_engines w msg

let test_circuits () =
  for seed = 0 to n_circuit_seeds - 1 do
    run_circuit_seed seed
  done

(* --- random CNF family -------------------------------------------------- *)

let cnf_instance seed =
  let rng = R.create ~seed:(0xC4F + seed) in
  let nvars = 4 + R.int rng (if long then 8 else 6) in
  let nclauses = nvars + R.int rng (2 * nvars) in
  let cnf = Helpers.random_cnf rng ~nvars ~nclauses ~max_len:3 in
  let k = 1 + R.int rng nvars in
  let vars = Array.init nvars (fun v -> v) in
  R.shuffle rng vars;
  (cnf, A.Project.of_vars (Array.sub vars 0 k))

(* Every fourth seed also draws a formula dense in solutions: a few
   3-literal clauses over distinct variables (each removes an eighth of
   the assignments) and a wide projection. Its projected solutions
   outnumber its clauses, so blocking enumeration hands over to
   chronological enumeration partway through. *)
let dense_seed seed = seed mod 4 = 3

let dense_cnf_instance seed =
  let rng = R.create ~seed:(0xD3C + seed) in
  let nvars = 8 + R.int rng (if long then 6 else 4) in
  let clause () =
    let vars = Array.init nvars (fun v -> v) in
    R.shuffle rng vars;
    List.init 3 (fun i -> Ps_sat.Lit.make vars.(i) (R.bool rng))
  in
  let cnf = Cnf.of_clauses ~nvars (List.init (1 + R.int rng 4) (fun _ -> clause ())) in
  let vars = Array.init nvars (fun v -> v) in
  R.shuffle rng vars;
  (cnf, A.Project.of_vars (Array.sub vars 0 (nvars - R.int rng 3)))

let brute_force_projected cnf proj =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun model ->
      Hashtbl.replace tbl
        (Cube.to_string (A.Project.cube_of_model proj model))
        ())
    (Cnf.brute_force_models cnf);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let enumerate_cnf ?jobs ?lift cnf proj =
  let fresh_solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    s
  in
  match jobs with
  | None -> A.Blocking.enumerate ?lift (fresh_solver ()) proj
  | Some jobs ->
    A.Parallel.run ~jobs ~width:(A.Project.width proj)
      ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
        let s = fresh_solver () in
        List.iter
          (fun lit -> ignore (Solver.add_clause s [ lit ]))
          (A.Project.lits_of_cube proj prefix);
        A.Blocking.enumerate ?limit ?budget ~trace ?lift s proj)
      ()

let check_cnf ~seed ~dense (cnf, proj) =
  let width = A.Project.width proj in
  let oracle = brute_force_projected cnf proj in
  (* minterm enumeration: every cube fixes every position and no
     minterm comes twice, so the cubes are pairwise disjoint *)
  let check_minterms what (r : A.Run.t) =
    if r.A.Run.stopped <> `Complete then
      Alcotest.failf "cnf seed %d: %s run not complete" seed what;
    if minterm_set width r.A.Run.cubes <> oracle then
      Alcotest.failf "cnf seed %d: %s blocking differs from truth table" seed
        what;
    if
      List.exists (fun c -> Cube.num_free c > 0) r.A.Run.cubes
      || List.length r.A.Run.cubes <> List.length oracle
    then Alcotest.failf "cnf seed %d: %s cubes are not disjoint minterms" seed what
  in
  let seq = enumerate_cnf cnf proj in
  check_minterms "sequential" seq;
  if dense && Ps_util.Stats.get seq.A.Run.stats "chrono_cubes" = 0 then
    Alcotest.failf "cnf seed %d: dense formula never handed over" seed;
  check_minterms "parallel" (enumerate_cnf ~jobs:2 cnf proj)

let run_cnf_seed seed =
  check_cnf ~seed ~dense:false (cnf_instance seed);
  if dense_seed seed then check_cnf ~seed ~dense:true (dense_cnf_instance seed)

let test_cnfs () =
  for seed = 0 to n_cnf_seeds - 1 do
    run_cnf_seed seed
  done

(* --- certification (Verify) against the truth table ---------------------- *)

module St = Ps_store.Store
module Verify = Ps_store.Verify

let n_verify_seeds = if long then 600 else 200

(* Store [cubes] as a finished log over [proj] and certify it. *)
let verify_cover cnf proj cubes =
  let path = Filename.temp_file "diff_verify" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let vars = Array.copy proj.A.Project.vars in
      let meta =
        { St.engine = "test"; width = Array.length vars; vars; source = "";
          source_crc = 0 }
      in
      let w = St.create ~path meta in
      List.iter (fun c -> ignore (St.append w c)) cubes;
      St.finalize w ~complete:true ();
      match St.recover ~path with
      | Ok r -> Verify.run ~cnf r
      | Error e -> failwith e)

(* Every third seed repeats one projection variable at a random
   position: gaps then assume a variable in both polarities, and their
   unsat cores must name both literals. *)
let verify_instance seed =
  let cnf, proj = cnf_instance seed in
  if seed mod 3 <> 2 then (cnf, proj, false)
  else begin
    let rng = R.create ~seed:(0x4E9 + seed) in
    let vars = Array.to_list proj.A.Project.vars in
    let v = R.pick rng vars in
    let at = R.int rng (List.length vars + 1) in
    let before = List.filteri (fun i _ -> i < at) vars
    and after = List.filteri (fun i _ -> i >= at) vars in
    (cnf, A.Project.of_vars (Array.of_list (before @ (v :: after))), true)
  end

(* --- lifted covers: disjoint cubes equal to the truth table --------------- *)

(* Lifted enumeration shrinks each model to a cube inside one
   chronological search, so its cubes never overlap: circuit
   justification through the blocking-lift engine (sequential and
   sharded) on the random netlists, and CNF lifting on random formulas
   whose projection repeats a variable on every third seed. *)

let rec pairwise_disjoint = function
  | [] -> true
  | c :: rest ->
    List.for_all (fun d -> not (Cube.intersects c d)) rest
    && pairwise_disjoint rest

let check_lifted_circuit seed =
  let inst = instance_of_witness (circuit_witness seed) in
  List.iter
    (fun jobs ->
      let r = E.run ?jobs E.BlockingLift inst in
      let what = if jobs = None then "sequential" else "sharded" in
      if not (pairwise_disjoint (E.cubes r)) then
        Alcotest.failf "lifted circuit seed %d: %s cubes overlap" seed what;
      let exact =
        if inst.I.include_inputs then Result.is_ok (Ch.engines_agree inst [ r ])
        else Ch.matches_brute_force inst r
      in
      if not exact then
        Alcotest.failf "lifted circuit seed %d: %s cover differs from the oracle"
          seed what)
    [ None; Some 2 ]

let check_lifted_cnf seed =
  let cnf, proj, _ = verify_instance seed in
  let width = A.Project.width proj in
  let oracle = brute_force_projected cnf proj in
  let lift = A.Cnf_lift.make cnf proj in
  List.iter
    (fun jobs ->
      let r = enumerate_cnf ?jobs ~lift cnf proj in
      let what = if jobs = None then "sequential" else "sharded" in
      if r.A.Run.stopped <> `Complete then
        Alcotest.failf "lifted cnf seed %d: %s run not complete" seed what;
      if not (pairwise_disjoint r.A.Run.cubes) then
        Alcotest.failf "lifted cnf seed %d: %s cubes overlap" seed what;
      if minterm_set width r.A.Run.cubes <> oracle then
        Alcotest.failf "lifted cnf seed %d: %s cover differs from truth table"
          seed what)
    [ None; Some 2 ]

let test_lifted_covers () =
  for seed = 0 to n_cnf_seeds - 1 do
    check_lifted_circuit seed;
    check_lifted_cnf seed
  done

(* Covers per instance: the exact minterms, the lifted blocking run's
   disjoint cubes and a cover of overlapping lifted cubes (each model's
   own) certify; dropping a solution minterm, or a lifted cube that no
   other cube makes up for, must yield a real solution outside the cover
   as the witness; adding a cube with no solution must name exactly that
   cube. A model's own lifted cube frees positions, not variables, so
   over a repeated variable it holds minterms that are no solution;
   those instances skip the overlapping cover (the blocking run keeps a
   repeated variable fixed). *)
let check_verify seed =
  let cnf, proj, repeated = verify_instance seed in
  let width = A.Project.width proj in
  let oracle = brute_force_projected cnf proj in
  let solution s = List.mem (Cube.to_string s) oracle in
  let covered cubes m = List.exists (fun c -> Cube.subsumes c m) cubes in
  let exact = List.map Cube.of_string oracle in
  let certified what cubes =
    let rep = verify_cover cnf proj cubes in
    if not (Verify.ok rep) then
      Alcotest.failf "verify seed %d: %s cover rejected" seed what
  in
  certified "exact" exact;
  let lift = A.Cnf_lift.make cnf proj in
  let lifted =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    (A.Blocking.enumerate ~lift s proj).A.Run.cubes
  in
  let overlapping =
    if repeated then []
    else
      List.sort_uniq Cube.compare
        (List.map
           (fun m ->
             Cube.of_masked_assignment
               (Array.map (fun v -> m.(v)) proj.A.Project.vars)
               (lift m))
           (Cnf.brute_force_models cnf))
  in
  let lifted_covers =
    ("lifted", lifted) :: (if repeated then [] else [ ("overlapping", overlapping) ])
  in
  List.iter
    (fun (what, cubes) ->
      if minterm_set width cubes <> oracle then
        Alcotest.failf "verify seed %d: %s cover differs from truth table" seed
          what;
      certified what cubes)
    lifted_covers;
  let rng = R.create ~seed:(0x7E4 + seed) in
  (if exact <> [] then
     let dropped = R.pick rng exact in
     let rest = List.filter (fun c -> not (Cube.equal c dropped)) exact in
     let rep = verify_cover cnf proj rest in
     match rep.Verify.missing with
     | Some m when solution m && not (covered rest m) -> ()
     | _ ->
       Alcotest.failf "verify seed %d: dropped minterm %s not reported" seed
         (Cube.to_string dropped));
  (* a lifted cube's minterms may all be covered by its neighbours *)
  List.iter
    (fun (what, cubes) ->
      if cubes <> [] then begin
        let dropped = R.pick rng cubes in
        let rest = List.filter (fun c -> not (Cube.equal c dropped)) cubes in
        let rep = verify_cover cnf proj rest in
        let expect_complete = minterm_set width rest = oracle in
        match rep.Verify.missing with
        | None when expect_complete -> ()
        | Some m when (not expect_complete) && solution m && not (covered rest m)
          -> ()
        | _ ->
          Alcotest.failf "verify seed %d: %s cover without %s misjudged" seed
            what (Cube.to_string dropped)
      end)
    lifted_covers;
  let non_solutions = ref [] in
  Cube.iter_minterms (Cube.make width) (fun bits ->
      let m = Cube.of_assignment bits in
      if not (solution m) then non_solutions := m :: !non_solutions);
  if !non_solutions <> [] then begin
    let bad = R.pick rng !non_solutions in
    let rep = verify_cover cnf proj (exact @ [ bad ]) in
    if
      rep.Verify.sound || (not (Verify.complete rep))
      || not (List.equal Cube.equal rep.Verify.unsound [ bad ])
    then
      Alcotest.failf "verify seed %d: unsound cube %s not the only culprit"
        seed (Cube.to_string bad)
  end;
  true

let test_verify =
  Helpers.qtest
    (Printf.sprintf "verify vs truth table (%d seeds)" n_verify_seeds)
    ~count:n_verify_seeds QCheck.(int_range 0 1_000_000) check_verify

(* --- incremental vs rebuild-per-frame reachability ----------------------- *)

module Reach = Preimage.Reach
module B = Ps_bdd.Bdd

(* Canonical state set: sorted minterm strings over the state bits, bit
   [i] = character [i] (each result owns its BDD manager, so handles
   cannot be compared directly). *)
let state_minterms f ~nstate =
  let acc = ref [] in
  B.iter_cubes f ~nvars:nstate (fun path ->
      let rec expand i prefix =
        if i = nstate then acc := prefix :: !acc
        else
          match path.(i) with
          | Some b -> expand (i + 1) (prefix ^ if b then "1" else "0")
          | None ->
            expand (i + 1) (prefix ^ "0");
            expand (i + 1) (prefix ^ "1")
      in
      expand 0 "");
  List.sort compare !acc

(* Backward reachability by explicit-state BFS over the exhaustive
   one-step oracle: every step's count of new states (the last is 0)
   and the reached set as in [state_minterms]. *)
let explicit_reach circuit target ~nstate =
  let bits code = Array.init nstate (fun i -> (code lsr i) land 1 = 1) in
  let codes = List.init (1 lsl nstate) Fun.id in
  let reached =
    Array.init (1 lsl nstate) (fun code ->
        List.exists (fun c -> Cube.contains c (bits code)) target)
  in
  let rec go frontier counts =
    if frontier = [] then List.rev counts
    else begin
      let pre =
        Ch.brute_force_preimage circuit
          (List.map (fun code -> Cube.of_assignment (bits code)) frontier)
      in
      let fresh = List.filter (fun code -> pre.(code) && not reached.(code)) codes in
      List.iter (fun code -> reached.(code) <- true) fresh;
      go fresh (float_of_int (List.length fresh) :: counts)
    end
  in
  let counts = go (List.filter (fun code -> reached.(code)) codes) [] in
  let minterm code =
    String.init nstate (fun i -> if (code lsr i) land 1 = 1 then '1' else '0')
  in
  let reached_codes = List.filter (fun code -> reached.(code)) codes in
  (counts, List.sort compare (List.map minterm reached_codes))

let reach_witness seed =
  let rng = R.create ~seed:(0xAEAC + seed) in
  let n_latches = 3 + R.int rng 3 in
  let spec =
    {
      Ps_gen.Random_seq.n_inputs = 1 + R.int rng 3;
      n_latches;
      n_gates = 8 + R.int rng (if long then 40 else 22);
      max_arity = 3;
      xor_share = 0.25;
      seed = (seed * 6841) + 5;
    }
  in
  let target = random_target rng ~bits:n_latches in
  {
    w_spec = spec;
    w_target = List.map Cube.to_string target;
    w_include_inputs = false;
    w_negate = false;
  }

(* The incremental session and the BDD engine (one transition context
   for the whole fixpoint) must be bit-identical to the SDS rebuild
   baseline: fixpoint flag, every layer (so the reached set) and every
   per-step statistic (frontier/total state counts, frontier cube
   counts). Small cones are also checked against an explicit-state BFS,
   which shares no code with the frame loop. *)
let compare_reach ~nstate name (base : Reach.result) (other : Reach.result) =
  let key (s : Reach.step) =
    (s.Reach.index, s.Reach.frontier_states, s.Reach.total_states, s.Reach.frontier_cubes)
  in
  let layers r = List.map (state_minterms ~nstate) r.Reach.layers in
  if base.Reach.fixpoint <> other.Reach.fixpoint then
    Some
      (Printf.sprintf "fixpoint differs: baseline %b, %s %b" base.Reach.fixpoint
         name other.Reach.fixpoint)
  else if List.length base.Reach.steps <> List.length other.Reach.steps then
    Some
      (Printf.sprintf "step count differs: baseline %d, %s %d"
         (List.length base.Reach.steps) name
         (List.length other.Reach.steps))
  else if layers base <> layers other then
    Some (Printf.sprintf "layers differ: baseline vs %s" name)
  else
    List.find_opt
      (fun (a, b) -> key a <> key b)
      (List.combine base.Reach.steps other.Reach.steps)
    |> Option.map (fun ((a : Reach.step), (b : Reach.step)) ->
           Printf.sprintf
             "step %d differs: baseline (+%g, total %g, %d cubes) vs %s (+%g, \
              total %g, %d cubes)"
             a.Reach.index a.Reach.frontier_states a.Reach.total_states
             a.Reach.frontier_cubes name b.Reach.frontier_states
             b.Reach.total_states b.Reach.frontier_cubes)

let check_reach w =
  let circuit = witness_circuit w in
  let target = witness_target w in
  let nstate = w.w_spec.Ps_gen.Random_seq.n_latches in
  let ninputs = List.length (Ps_circuit.Netlist.inputs circuit) in
  let base = Reach.backward ~engine:Reach.E_sds circuit target in
  let mismatch =
    List.find_map
      (fun (name, engine) ->
        compare_reach ~nstate name base (Reach.backward ~engine circuit target))
      [ ("incremental", Reach.E_incremental); ("bdd", Reach.E_bdd) ]
  in
  match mismatch with
  | Some _ -> mismatch
  | None ->
    if nstate + ninputs > 20 then None
    else begin
      let counts, reached = explicit_reach circuit target ~nstate in
      let steps = List.map (fun (s : Reach.step) -> s.Reach.frontier_states) base.Reach.steps in
      if steps <> counts then Some "per-step new states differ from explicit BFS"
      else if state_minterms base.Reach.reached ~nstate <> reached then
        Some "reached set differs from explicit BFS"
      else None
    end

let run_reach_seed seed =
  let w = reach_witness seed in
  match check_reach w with
  | None -> ()
  | Some msg -> fail_shrunk ~family:"reach" ~seed check_reach w msg

let test_reach () =
  for seed = 0 to n_reach_seeds - 1 do
    run_reach_seed seed
  done

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Alcotest.test_case
            (Printf.sprintf "random netlists (%d seeds)" n_circuit_seeds)
            `Quick test_circuits;
          Alcotest.test_case
            (Printf.sprintf "random cnf/projection (%d seeds)" n_cnf_seeds)
            `Quick test_cnfs;
          Alcotest.test_case
            (Printf.sprintf "incremental reach vs baseline (%d seeds)"
               n_reach_seeds)
            `Quick test_reach;
          test_verify;
          Alcotest.test_case
            (Printf.sprintf "lifted covers are disjoint (%d seeds)" n_cnf_seeds)
            `Quick test_lifted_covers;
        ] );
    ]
