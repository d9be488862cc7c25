(* Tests for guiding-path parallel enumeration: determinism across
   worker counts, cross-domain cancellation, global budget enforcement,
   and the fixed-depth shard partition. *)

module I = Preimage.Instance
module E = Preimage.Engine
module Ch = Preimage.Check
module A = Ps_allsat
module Cube = A.Cube
module Par = A.Parallel
module Run = A.Run
module Budget = Ps_util.Budget
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace
module T = Ps_gen.Targets
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Canonical view of a solution set: the sorted list of minterm
   strings. Engines (and shardings) may decompose the set into
   different cubes; the minterm set is the invariant. *)
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

let cube_strings cubes = List.map Cube.to_string cubes

(* --- guiding paths ------------------------------------------------------ *)

let test_guiding_paths () =
  let paths = Par.guiding_paths ~width:5 ~depth:3 in
  check_int "count" 8 (List.length paths);
  check_bool "sorted strictly" true
    (let rec ok = function
       | a :: (b :: _ as tl) -> Cube.compare a b < 0 && ok tl
       | _ -> true
     in
     ok paths);
  List.iter
    (fun p ->
      check_int "fixes the split positions" 3 (Cube.num_fixed p);
      check_int "width" 5 (Cube.width p))
    paths;
  (* pairwise disjoint, and together they cover the whole space *)
  let rec pairs = function
    | [] -> []
    | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
  in
  List.iter
    (fun (a, b) -> check_bool "disjoint" false (Cube.intersects a b))
    (pairs paths);
  check_int "cover"
    (1 lsl 5)
    (int_of_float
       (List.fold_left (fun acc p -> acc +. Cube.minterm_count p) 0.0 paths));
  match Par.guiding_paths ~width:4 ~depth:0 with
  | [ p ] -> check_int "depth 0 = whole space" 0 (Cube.num_fixed p)
  | _ -> Alcotest.fail "depth 0 must yield one shard"

(* --- determinism across jobs ------------------------------------------- *)

let determinism_instances () =
  [
    ( "counter8",
      I.make (Ps_gen.Counters.binary ~bits:8 ()) (T.upper_half ~bits:8) );
    ( "random-seq",
      let spec =
        {
          Ps_gen.Random_seq.n_inputs = 3;
          n_latches = 7;
          n_gates = 60;
          max_arity = 3;
          xor_share = 0.25;
          seed = 42;
        }
      in
      let c = Ps_gen.Random_seq.generate spec in
      I.make c (T.random ~bits:7 ~ncubes:2 ~density:0.6 (R.create ~seed:7)) );
  ]

let test_jobs_determinism () =
  List.iter
    (fun (name, inst) ->
      let width = A.Project.width inst.I.proj in
      List.iter
        (fun method_ ->
          let mname = E.method_name method_ in
          let seq = E.run method_ inst in
          let reference = E.run ~jobs:1 method_ inst in
          List.iter
            (fun jobs ->
              let r = E.run ~jobs method_ inst in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s: jobs=%d cube list = jobs=1" name mname
                   jobs)
                (cube_strings (E.cubes reference))
                (cube_strings (E.cubes r));
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s: jobs=%d solution count" name mname jobs)
                seq.E.solutions r.E.solutions;
              check_bool
                (Printf.sprintf "%s/%s: jobs=%d complete" name mname jobs)
                true (E.complete r))
            [ 2; 4 ];
          (* sharded and sequential decompose differently; the minterm
             sets must still match *)
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: parallel minterms = sequential" name mname)
            (minterm_set width (E.cubes seq))
            (minterm_set width (E.cubes reference));
          (* same seed, same jobs: bit-identical rerun *)
          let again = E.run ~jobs:2 method_ inst in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: rerun is bit-identical" name mname)
            (cube_strings (E.cubes (E.run ~jobs:2 method_ inst)))
            (cube_strings (E.cubes again)))
        E.all_methods)
    (determinism_instances ())

(* --- cross-domain cancellation ----------------------------------------- *)

(* Every minterm of every returned cube must be a real solution: a
   truncated parallel run is an under-approximation, never garbage. *)
let check_sound inst cubes =
  let oracle = Ch.brute_force_objective inst in
  List.iter
    (fun c ->
      Cube.iter_minterms c (fun bits ->
          let code =
            Array.to_list bits
            |> List.mapi (fun i b -> if b then 1 lsl i else 0)
            |> List.fold_left ( + ) 0
          in
          check_bool "cube minterm is a solution" true oracle.(code)))
    cubes

let test_cancel_from_other_domain () =
  (* all 2^12 states are in the preimage: plenty of work to interrupt *)
  let inst =
    I.make (Ps_gen.Counters.binary ~bits:12 ()) [ Cube.make 12 ]
  in
  let flag = Budget.cancel_flag () in
  let budget = Budget.make ~cancel_with:flag () in
  let seen_cube = Atomic.make false in
  (* a worker that reports a cube waits until the flag is tripped, so the
     run cannot finish before the cancellation lands however fast the
     enumeration drains the state space *)
  let trace =
    Trace.callback (fun ~time_s:_ ev ->
        match ev with
        | Trace.Cube _ ->
          Atomic.set seen_cube true;
          while not (Budget.cancel_requested flag) do
            Domain.cpu_relax ()
          done
        | _ -> ())
  in
  (* the canceller runs on its own domain and trips the shared flag as
     soon as any worker has produced a first cube *)
  let canceller =
    Domain.spawn (fun () ->
        while not (Atomic.get seen_cube) do
          Domain.cpu_relax ()
        done;
        Budget.cancel flag)
  in
  let r = E.run ~jobs:2 ~budget ~trace E.Blocking inst in
  Domain.join canceller;
  check_bool "stopped cancelled" true (E.stopped r = `Cancelled);
  check_bool "budget records the stop" true (Budget.stopped budget = Some `Cancelled);
  check_bool "partial" true (r.E.n_cubes < 1 lsl 12);
  check_sound inst (E.cubes r)

(* --- global budget across shards --------------------------------------- *)

let test_global_conflict_budget () =
  (* a near-threshold random 3-CNF (Table 2b's n120 row, seed 2)
     projected on its first 24 variables: 2,729 minterms, found with
     about 8,400 conflicts across the shards, so the cap lies thousands of
     conflicts before the end of the run and an overshoot past the slack
     below would show *)
  let cnf = Helpers.random_3cnf ~seed:2 ~nvars:120 ~nclauses:456 in
  let width = 24 in
  let proj = A.Project.of_vars (Array.init width Fun.id) in
  let run ?budget () =
    Par.run ~jobs:4 ?budget ~width
      ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
        let s = Ps_sat.Solver.create () in
        ignore (Ps_sat.Solver.load s cnf);
        List.iter
          (fun l -> ignore (Ps_sat.Solver.add_clause s [ l ]))
          (A.Project.lits_of_cube proj prefix);
        A.Blocking.enumerate ?limit ?budget ~trace s proj)
      ()
  in
  let full = run () in
  let total_conflicts = Stats.get full.Run.stats "conflicts" in
  check_bool "run is complete" true (Run.complete full);
  (* globally enforced: total spend across all shards stays within the
     polling grain of the cap (each in-flight solver may overshoot by
     one decision batch before its next poll) *)
  let slack = 4 * 256 in
  (* if this workload ever spent fewer conflicts, an unbounded overshoot
     could hide inside the slack *)
  check_bool
    (Printf.sprintf "workload spends %d conflicts, more than 4 x slack" total_conflicts)
    true
    (total_conflicts > 4 * slack);
  let cap = total_conflicts / 2 in
  let budget = Budget.make ~conflicts:cap () in
  let r = run ~budget () in
  check_bool "stopped on conflicts" true (r.Run.stopped = `Conflicts);
  check_bool
    (Printf.sprintf "conflicts %d within cap %d + slack"
       (Budget.conflicts_spent budget) cap)
    true
    (Budget.conflicts_spent budget <= cap + slack);
  check_bool "under-approximation" true
    (List.length r.Run.cubes < List.length full.Run.cubes);
  (* truncated cubes are a subset of the full solution set *)
  let full_set = Hashtbl.create 4096 in
  List.iter (fun m -> Hashtbl.replace full_set m ()) (minterm_set width full.Run.cubes);
  List.iter
    (fun m -> check_bool "cube in full set" true (Hashtbl.mem full_set m))
    (minterm_set width r.Run.cubes);
  (* and each extends to a model of the formula *)
  let s = Ps_sat.Solver.create () in
  ignore (Ps_sat.Solver.load s cnf);
  List.iter
    (fun c ->
      check_bool "cube is sound" true
        (Ps_sat.Solver.solve ~assumptions:(A.Project.lits_of_cube proj c) s
         = Ps_sat.Solver.Sat))
    r.Run.cubes

(* --- per-shard hand-over ------------------------------------------------ *)

(* A shard's prefix units fix its leading projection bits at the root,
   and while its models cost at most one conflict each, each fixed bit
   halves the blocking clauses the shard adds before it hands over to
   chronological enumeration. count12's upper half has 2,049 minterms
   over 16 shards. *)
let test_shards_hand_over_early () =
  let e = Ps_gen.Suite.find "count12" in
  let inst = I.make (Lazy.force e.Ps_gen.Suite.circuit) (T.upper_half ~bits:12) in
  let width = A.Project.width inst.I.proj in
  let seq = E.run E.Blocking inst in
  let par = E.run ~jobs:2 E.Blocking inst in
  let shards = Stats.get (E.stats par) "shards" in
  let sat_calls = Stats.get (E.stats par) "sat_calls" in
  check_bool "complete" true (E.complete par);
  check_bool
    (Printf.sprintf "%d sat calls over %d shards" sat_calls shards)
    true
    (sat_calls <= 4 * shards);
  Alcotest.(check (list string))
    "sharded minterms = unsharded"
    (minterm_set width (E.cubes seq))
    (minterm_set width (E.cubes par))

(* A near-threshold random 3-CNF (60 variables, 230 clauses, 577
   minterms over its first 18) has sparse shards whose models cost
   about 2.5 conflicts each, the regime of EXPERIMENTS.md Table 2b,
   where projection-first chronological search pays far more
   conflicts. They keep the full threshold; no shard holds more
   minterms than the problem clauses, so none hands over: one classical
   call per minterm plus the final unsatisfiable one, per shard. *)
let test_sparse_shards_keep_full_threshold () =
  let cnf = Helpers.random_3cnf ~seed:6 ~nvars:60 ~nclauses:230 in
  let width = 18 in
  let proj = A.Project.of_vars (Array.init width Fun.id) in
  let solver () =
    let s = Ps_sat.Solver.create () in
    ignore (Ps_sat.Solver.load s cnf);
    s
  in
  let problem_clauses = Ps_sat.Solver.n_clauses (solver ()) in
  let seq = A.Blocking.enumerate (solver ()) proj in
  let par =
    Par.run ~jobs:2 ~width
      ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
        let s = solver () in
        List.iter
          (fun l -> ignore (Ps_sat.Solver.add_clause s [ l ]))
          (A.Project.lits_of_cube proj prefix);
        A.Blocking.enumerate ?limit ?budget ~trace s proj)
      ()
  in
  let cubes = List.length par.Run.cubes in
  let shards = Stats.get par.Run.stats "shards" in
  check_bool "complete" true (Run.complete par);
  check_bool "premise: no shard holds more minterms than problem clauses"
    true
    (Stats.get par.Run.stats "shard_cubes_max" <= problem_clauses);
  check_int "no shard hands over" 0 (Stats.get par.Run.stats "chrono_cubes");
  check_int "one classical call per minterm and shard" (cubes + shards)
    (A.Blocking.sat_calls par);
  Alcotest.(check (list string))
    "sharded minterms = unsharded"
    (minterm_set width seq.Run.cubes)
    (minterm_set width par.Run.cubes)

(* --- fixed-depth sharding ----------------------------------------------- *)

(* Synthetic shard runner over a known solution set (all 2^6 minterms):
   enumerate the minterms below the prefix, honouring [limit] — exactly
   the contract of a real engine, with none of the cost. *)
let synthetic_run_shard ~prefix ~limit ~budget:_ ~trace:_ =
  let all = ref [] in
  Cube.iter_minterms prefix (fun bits ->
      all := Cube.of_assignment (Array.copy bits) :: !all);
  let all = List.rev !all in
  let cubes, stopped =
    match limit with
    | Some l when List.length all > l ->
      (List.filteri (fun i _ -> i < l) all, `CubeLimit)
    | _ -> (all, `Complete)
  in
  { Run.cubes; witnesses = None; graph = None; stats = Stats.create (); stopped }

let test_fixed_depth () =
  let events = ref [] in
  let trace =
    Trace.callback (fun ~time_s:_ ev ->
        match ev with
        | Trace.Shard_start _ | Trace.Shard_done _ ->
          events := ev :: !events
        | _ -> ())
  in
  let depth = 4 in
  let r =
    Par.run ~jobs:2 ~split_depth:depth ~trace ~width:6
      ~run_shard:synthetic_run_shard ()
  in
  check_bool "complete" true (r.Run.stopped = `Complete);
  check_int "all 64 minterms" 64 (List.length r.Run.cubes);
  Alcotest.(check (list string))
    "all minterms present"
    (List.map Cube.to_string (Par.guiding_paths ~width:6 ~depth:6))
    (minterm_set 6 r.Run.cubes);
  (* shards are merged in prefix order (within a shard: discovery order) *)
  check_bool "shard groups sorted" true
    (let prefix c = String.sub (Cube.to_string c) 0 depth in
     let rec ok = function
       | a :: (b :: _ as tl) -> prefix a <= prefix b && ok tl
       | _ -> true
     in
     ok r.Run.cubes);
  check_int "2^depth shards" (1 lsl depth) (Stats.get r.Run.stats "shards");
  check_int "no drops" 0 (Stats.get r.Run.stats "shards_dropped");
  let starts =
    List.length
      (List.filter (function Trace.Shard_start _ -> true | _ -> false) !events)
  in
  check_int "shard_start events" (1 lsl depth) starts

let test_parallel_limit () =
  (* the global cube cap truncates deterministically, in prefix order *)
  let r =
    Par.run ~jobs:2 ~split_depth:2 ~limit:10 ~width:6
      ~run_shard:synthetic_run_shard ()
  in
  check_bool "stopped on limit" true (r.Run.stopped = `CubeLimit);
  check_int "exactly limit cubes" 10 (List.length r.Run.cubes);
  let full =
    Par.run ~jobs:1 ~split_depth:2 ~width:6 ~run_shard:synthetic_run_shard ()
  in
  (* prefix-sorted merge makes the truncation a prefix of the full list *)
  List.iteri
    (fun i c ->
      if i < 10 then
        Alcotest.(check string)
          "truncation is a prefix" (Cube.to_string c)
          (Cube.to_string (List.nth r.Run.cubes i)))
    full.Run.cubes

let test_shard_exception_propagates () =
  let boom _ = failwith "shard failure" in
  match
    Par.run ~jobs:2 ~split_depth:2 ~width:4
      ~run_shard:(fun ~prefix ~limit:_ ~budget:_ ~trace:_ -> boom prefix)
      ()
  with
  | _ -> Alcotest.fail "expected the shard exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "shard failure" msg

let () =
  Alcotest.run "parallel"
    [
      ( "guiding paths",
        [ Alcotest.test_case "split/disjoint/cover" `Quick test_guiding_paths ]
      );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/4 identical, seq-equivalent" `Quick
            test_jobs_determinism;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancel from another domain" `Quick
            test_cancel_from_other_domain;
        ] );
      ( "budget",
        [
          Alcotest.test_case "global conflict budget" `Quick
            test_global_conflict_budget;
        ] );
      ( "hand-over",
        [
          Alcotest.test_case "shards hand over early" `Quick
            test_shards_hand_over_early;
          Alcotest.test_case "sparse shards keep the full threshold" `Quick
            test_sparse_shards_keep_full_threshold;
        ] );
      ( "re-splitting",
        [
          Alcotest.test_case "fixed-depth split" `Quick test_fixed_depth;
          Alcotest.test_case "global cube limit" `Quick test_parallel_limit;
          Alcotest.test_case "shard exception" `Quick
            test_shard_exception_propagates;
        ] );
    ]
