(* Repository benchmark: five seeded preimage workloads run as a closed
   loop (each query starts when the previous one ends), with end-to-end
   metrics from an untraced run and per-layer metrics from a traced one.
   See README.md in this directory for the workloads, the metrics and
   which layer metric should move which end-to-end metric.

   Usage:
     pbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   stamps the run (nproc, OCaml version, commit, seed, jobs). *)

module I = Preimage.Instance
module BE = Preimage.Bdd_engine
module Rh = Preimage.Reach
module Ri = Preimage.Reach_inc
module A = Ps_allsat
module Sg = Ps_allsat.Solution_graph
module Cube = Ps_allsat.Cube
module S = Ps_sat.Solver
module St = Ps_store.Store
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace
module T = Ps_gen.Targets

let now = Unix.gettimeofday

(* --- per-layer recording ------------------------------------------------- *)

(* Spans and counters are recorded only in the traced phase of a run;
   otherwise [span] is a plain call. Spans opened directly by a query
   (depth 0) are the query's attributed time; the rest of the query's
   wall time is reported as [unattributed_s]. Shard spans come from
   worker domains, hence the lock. *)
let tracing = ref false
let lock = Mutex.create ()
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8
let depth = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let add k v =
  if !tracing then
    locked (fun () ->
        Hashtbl.replace totals k
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals k)))

let addi k n = add k (float_of_int n)

let sample k v =
  if !tracing then
    locked (fun () ->
        Hashtbl.replace samples k
          (v :: Option.value ~default:[] (Hashtbl.find_opt samples k)))

let total k = Option.value ~default:0.0 (Hashtbl.find_opt totals k)

let span name f =
  if not !tracing then f ()
  else begin
    let top = !depth = 0 in
    incr depth;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        let dt = now () -. t0 in
        add name dt;
        if top then add "attributed_s" dt)
      f
  end

(* Solver counters of every solver the benchmark can see, plus the time
   of the enumeration that drove it (for propagations per second). *)
let solver_counters =
  [ "propagations"; "conflicts"; "decisions"; "solve_calls"; "watcher_visits";
    "blocker_skips"; "reduce_dbs"; "arena_gcs" ]

let record_solver ~busy_s solver =
  if !tracing then begin
    let st = S.stats solver in
    List.iter (fun k -> addi ("solver." ^ k) (Stats.get st k)) solver_counters;
    addi "solver.arena_words" (S.arena_words solver);
    add "solver.busy_s" busy_s
  end

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- queries --------------------------------------------------------------- *)

(* One query of a workload: [run] is timed; [check] (untimed) says
   whether its output was correct and complete. [card] is its result
   cardinality: projected solutions, or reached states. *)
type outcome = { card : float; check : unit -> bool }
type query = { label : string; run : unit -> outcome }

let memo f =
  let l = lazy (f ()) in
  fun () -> Lazy.force l

let bdd_count inst = memo (fun () -> BE.count (BE.run inst) ~nstate:(I.num_state inst))

(* Explicit-state facts about a small circuit and target, from
   simulating every (state, input) pair: the share of the state space
   in Pre(target), the number of backward frames to the fixpoint, and
   whether the fixpoint is regular: the whole state space, with every
   frame's new states forming one cube. *)
let explore c target =
  let latches = List.length (Ps_circuit.Netlist.latches c) in
  let inputs = List.length (Ps_circuit.Netlist.inputs c) in
  let bits n k = Array.init k (fun i -> (n lsr i) land 1 = 1) in
  let code a = Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) a 0 in
  let n = 1 lsl latches in
  let preds = Array.make n [] in
  for s = 0 to n - 1 do
    let state = bits s latches in
    for x = 0 to (1 lsl inputs) - 1 do
      let next = code (snd (Ps_circuit.Sim.step c ~inputs:(bits x inputs) ~state)) in
      preds.(next) <- s :: preds.(next)
    done
  done;
  let in_target = Array.init n (fun s -> T.mem target (bits s latches)) in
  let pre = Array.make n false in
  Array.iteri (fun t ps -> if in_target.(t) then List.iter (fun s -> pre.(s) <- true) ps) preds;
  let share = float_of_int (Array.fold_left (fun a b -> a + Bool.to_int b) 0 pre) /. float_of_int n in
  let reached = Array.copy in_target in
  (* a set of states is a cube iff its size is 2^(bits on which they differ) *)
  let is_cube = function
    | [] -> true
    | s0 :: _ as set ->
      let differ = List.fold_left (fun a s -> a lor (s lxor s0)) 0 set in
      let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
      List.length set = 1 lsl popcount differ
  in
  let rec frames frontier k cubes =
    let fresh =
      List.concat_map
        (fun t ->
          List.filter
            (fun s -> if reached.(s) then false else (reached.(s) <- true; true))
            preds.(t))
        frontier
    in
    if fresh = [] then (k, cubes) else frames fresh (k + 1) (cubes && is_cube fresh)
  in
  let start = List.filter (fun s -> in_target.(s)) (List.init n Fun.id) in
  let depth, cubes = frames start 0 true in
  (share, depth, cubes && Array.for_all Fun.id reached)

(* A seeded random case: a random circuit's generator spec and a target
   (two random cubes, or the upper half). Draws are repeated until the
   case falls in a narrow band (the target's preimage covers 40-60% of
   the state space; for reachability, the fixpoint takes [frames]
   frames), so that every seed brings about the same amount of work;
   after 64 draws the last one is kept. Picking is input generation,
   done once per run and not part of set-up; set-up builds the circuit
   from the spec. *)
type seeded = { spec : Ps_gen.Random_seq.spec; target : T.t }

let pick_seeded ?(upper = false) ?frames rng ~inputs ~latches ~gates =
  let draw () =
    let spec =
      {
        Ps_gen.Random_seq.default_spec with
        n_inputs = inputs;
        n_latches = latches;
        n_gates = gates;
        seed = Ps_util.Rng.int rng 1_000_000;
      }
    in
    let target =
      if upper then T.upper_half ~bits:latches
      else T.random ~bits:latches ~ncubes:2 ~density:0.35 rng
    in
    { spec; target }
  in
  let rec go n =
    let case = draw () in
    let share, depth, regular = explore (Ps_gen.Random_seq.generate case.spec) case.target in
    let fits =
      share >= 0.4 && share <= 0.6
      && match frames with Some (lo, hi) -> regular && depth >= lo && depth <= hi | None -> true
    in
    if n >= 64 || fits then case else go (n + 1)
  in
  go 1

let seeded_circuit s = Ps_gen.Random_seq.generate s.spec

let make_instance c target =
  let inst = span "instance.make" (fun () -> I.make c target) in
  addi "instance.cnf_clauses" (Ps_sat.Cnf.nclauses inst.I.cnf);
  inst

(* --- allsat workloads ------------------------------------------------------ *)

(* A DIMACS all-SAT input: the upper-half preimage CNF of a counter or a
   seeded random-circuit preimage CNF, rendered to DIMACS text and parsed
   back, with the target asserted and the state bits as projection. *)
type cnf_input = {
  cname : string;
  cnf : Ps_sat.Cnf.t;
  proj : A.Project.t;
  expected : unit -> float;
}

let dense_counter_bits = [ 12; 13; 14 ]

let allsat_picks rng =
  List.init 3 (fun _ -> pick_seeded rng ~inputs:3 ~latches:11 ~gates:60)

let allsat_inputs picks =
  let of_instance cname inst =
    let full = Ps_sat.Cnf.add_clause inst.I.cnf [ Ps_sat.Lit.pos inst.I.root ] in
    let text = Ps_sat.Dimacs.to_string full in
    addi "dimacs.bytes" (String.length text);
    let cnf = span "dimacs.parse" (fun () -> Ps_sat.Dimacs.parse_string text) in
    (* solver load is part of set-up; queries load their own copy *)
    ignore (span "setup.solver_load" (fun () -> S.load (S.create ()) cnf));
    { cname; cnf; proj = inst.I.proj; expected = bdd_count inst }
  in
  let counters =
    List.map
      (fun bits ->
        of_instance
          (Printf.sprintf "count%d" bits)
          (make_instance (Ps_gen.Counters.binary ~bits ()) (T.upper_half ~bits)))
      dense_counter_bits
  in
  let randoms =
    List.mapi
      (fun i p ->
        of_instance (Printf.sprintf "rand%d" i) (make_instance (seeded_circuit p) p.target))
      picks
  in
  counters @ randoms

let fresh_solver cnf =
  span "solver.load" (fun () ->
      let s = S.create () in
      ignore (S.load s cnf);
      s)

let work_dir = ".perfbench_work"

let remove_file p = if Sys.file_exists p then Sys.remove p

let dense_query i inp =
  let path = Filename.concat work_dir (Printf.sprintf "dense%d.log" i) in
  let run () =
    let solver = fresh_solver inp.cnf in
    let width = A.Project.width inp.proj in
    let w =
      span "store.create" (fun () ->
          St.create ~path
            { St.engine = "allsat"; width; vars = Array.copy inp.proj.A.Project.vars;
              source = inp.cname; source_crc = 0 })
    in
    let store_sink = St.sink w in
    let sink =
      if !tracing then
        A.Run.sink_of_fun (fun c ->
            let t0 = now () in
            store_sink.A.Run.on_cube c;
            add "store.append_s" (now () -. t0))
      else store_sink
    in
    let r, enum_s =
      timed (fun () -> span "blocking.enumerate" (fun () -> A.Blocking.enumerate ~sink solver inp.proj))
    in
    record_solver ~busy_s:enum_s solver;
    addi "blocking.cubes" (List.length r.A.Run.cubes);
    addi "blocking.sat_calls" (A.Blocking.sat_calls r);
    addi "blocking.decisions" (Stats.get (S.stats solver) "decisions");
    let complete = A.Run.complete r in
    span "store.finalize" (fun () -> St.finalize w ~complete ());
    let ws = St.stats w in
    addi "store.appends" (List.length r.A.Run.cubes);
    addi "store.subsumed" ws.St.subsumed_on_write;
    addi "store.bytes" ws.St.bytes;
    let verified =
      match span "store.recover" (fun () -> St.recover ~path) with
      | Error _ -> false
      | Ok rec_ ->
        Ps_store.Verify.certifiable rec_ = None
        &&
        let rep = span "verify.run" (fun () -> Ps_store.Verify.run ~cnf:inp.cnf rec_) in
        addi "verify.sat_calls" rep.Ps_store.Verify.sat_calls;
        Ps_store.Verify.ok rep
    in
    remove_file path;
    let card = float_of_int (List.length r.A.Run.cubes) in
    {
      card;
      check =
        (fun () ->
          complete && verified && ws.St.cubes = List.length r.A.Run.cubes
          && card = inp.expected ());
    }
  in
  { label = "dense/" ^ inp.cname; run }

let jobs = min 2 (Domain.recommended_domain_count ())

(* Per-shard records of the traced phase: start, end, cubes, wasted. *)
let shard_log : (float * float * int * bool) list ref = ref []

let sharded_query inp =
  let run_shard ~prefix ~limit ~budget ~trace =
    let t0 = now () in
    let solver = S.create () in
    ignore (S.load solver inp.cnf);
    List.iter
      (fun lit -> ignore (S.add_clause solver [ lit ]))
      (A.Project.lits_of_cube inp.proj prefix);
    let r = A.Blocking.enumerate ?limit ?budget ~trace solver inp.proj in
    if !tracing then begin
      let t1 = now () in
      record_solver ~busy_s:(t1 -. t0) solver;
      let wasted = r.A.Run.stopped = `CubeLimit in
      locked (fun () ->
          shard_log := (t0, t1, List.length r.A.Run.cubes, wasted) :: !shard_log)
    end;
    r
  in
  let run () =
    let start = now () in
    shard_log := [];
    let r =
      span "parallel.run" (fun () ->
          A.Parallel.run ~jobs ~width:(A.Project.width inp.proj) ~run_shard ())
    in
    if !tracing then begin
      let stop = now () in
      let shards = !shard_log in
      let busy = List.fold_left (fun a (t0, t1, _, _) -> a +. (t1 -. t0)) 0.0 shards in
      let last = List.fold_left (fun a (_, t1, _, _) -> Float.max a t1) start shards in
      List.iter (fun (t0, t1, _, _) -> sample "parallel.shard_s" (t1 -. t0)) shards;
      addi "parallel.shards" (List.length shards);
      addi "parallel.resplits" (Stats.get r.A.Run.stats "shard_resplits");
      add "parallel.shard_busy_s" busy;
      add "parallel.capacity_s" (float_of_int jobs *. (stop -. start));
      add "parallel.tail_s" (stop -. last);
      List.iter
        (fun (_, _, n, wasted) ->
          addi "parallel.shard_cubes" n;
          if wasted then addi "parallel.wasted_cubes" n)
        shards
    end;
    let card =
      List.fold_left (fun a c -> a +. Cube.minterm_count c) 0.0 r.A.Run.cubes
    in
    { card; check = (fun () -> A.Run.complete r && card = inp.expected ()) }
  in
  { label = "sharded/" ^ inp.cname; run }

(* --- preimage-lifted ------------------------------------------------------- *)

let lfsr_taps = [ 10; 12; 14 ]

type engine = Sds | Sds_dynamic | Blocking_lift | Bdd

let engine_name = function
  | Sds -> "sds"
  | Sds_dynamic -> "sds-dynamic"
  | Blocking_lift -> "blocking-lift"
  | Bdd -> "bdd"

let preimage_engines = [ Sds; Sds_dynamic; Blocking_lift; Bdd ]

let preimage_picks rng =
  List.init 2 (fun _ -> pick_seeded rng ~inputs:3 ~latches:8 ~gates:40)

let preimage_instances picks =
  let suite =
    List.map
      (fun e ->
        ( e.Ps_gen.Suite.name,
          make_instance (Lazy.force e.Ps_gen.Suite.circuit) (Ps_gen.Suite.default_target e) ))
      Ps_gen.Suite.medium
  in
  let lfsr =
    List.map
      (fun k ->
        let c = Ps_gen.Lfsr.fibonacci ~bits:16 ~taps:(List.init k Fun.id) () in
        (Printf.sprintf "lfsr16-xor%d" k, make_instance c (T.bit_high ~bits:16 0)))
      lfsr_taps
  in
  let randoms =
    List.mapi
      (fun i p -> (Printf.sprintf "rand%d" i, make_instance (seeded_circuit p) p.target))
      picks
  in
  suite @ lfsr @ randoms

let preimage_query (name, inst) engine =
  let expected = bdd_count inst in
  let sds variant =
    let solver = span "solver.load" (fun () -> I.solver inst) in
    let r, search_s =
      timed (fun () ->
          span "sds.search" (fun () ->
              A.Sds.search ~config:(A.Sds.config variant)
                ~netlist:inst.I.augmented ~root:inst.I.root
                ~proj_nets:inst.I.proj_nets ~solver ()))
    in
    record_solver ~busy_s:search_s solver;
    List.iter
      (fun k -> addi ("sds." ^ k) (Stats.get r.A.Run.stats k))
      [ "search_nodes"; "memo_hits"; "ternary_decides"; "unsat_prunes"; "sat_calls" ];
    let g = Option.get r.A.Run.graph in
    let card =
      span "graph.count" (fun () ->
          match variant with
          | A.Sds.SdsDynamic -> Sg.count_models_paths g
          | A.Sds.Sds | A.Sds.SdsNoMemo -> Sg.count_models g)
    in
    addi "graph.nodes" (Sg.size g);
    add "graph.solutions" card;
    (card, A.Run.complete r)
  in
  let run () =
    let card, complete =
      match engine with
      | Sds -> sds A.Sds.Sds
      | Sds_dynamic -> sds A.Sds.SdsDynamic
      | Blocking_lift ->
        let solver = span "solver.load" (fun () -> I.solver inst) in
        let lift =
          if !tracing then (fun m ->
            let t0 = now () in
            let mask = I.lift inst m in
            add "lifting.s" (now () -. t0);
            addi "lifting.calls" 1;
            mask)
          else I.lift inst
        in
        let r, enum_s =
          timed (fun () ->
              span "blocking.enumerate" (fun () -> A.Blocking.enumerate ~lift solver inst.I.proj))
        in
        record_solver ~busy_s:enum_s solver;
        let cubes = r.A.Run.cubes in
        addi "blocking.cubes" (List.length cubes);
        addi "blocking.sat_calls" (A.Blocking.sat_calls r);
        addi "blocking.decisions" (Stats.get (S.stats solver) "decisions");
        List.iter
          (fun c ->
            addi "lifting.free" (Cube.num_free c);
            addi "lifting.width" (Cube.width c))
          cubes;
        let width = A.Project.width inst.I.proj in
        let card =
          span "graph.union" (fun () -> Preimage.Engine.solution_count_of_cubes width cubes)
        in
        (card, A.Run.complete r)
      | Bdd ->
        let r = span "bdd.preimage" (fun () -> BE.run inst) in
        addi "bdd.nodes_allocated" r.BE.nodes_allocated;
        (BE.count r ~nstate:(I.num_state inst), true)
    in
    { card; check = (fun () -> complete && card = expected ()) }
  in
  { label = Printf.sprintf "preimage/%s/%s" name (engine_name engine); run }

(* --- reachability workloads ------------------------------------------------ *)

type reach_engine = Rebuild of Rh.engine | Session

let reach_engines =
  [ Rebuild Rh.E_sds; Rebuild Rh.E_sds_dynamic; Rebuild Rh.E_blocking_lift;
    Rebuild Rh.E_bdd; Session ]

let reach_engine_name = function
  | Rebuild e -> Rh.engine_name e
  | Session -> "incremental"

(* Frame durations of a rebuild-per-frame run, read off its trace. *)
let frame_sink () =
  let open_at = ref 0.0 in
  Trace.callback (fun ~time_s ev ->
      match ev with
      | Trace.Frame_start _ -> open_at := time_s
      | Trace.Frame_done _ -> sample "reach.frame_s" (time_s -. !open_at)
      | _ -> ())

let run_session circuit target ~max_steps =
  let t = span "reach_inc.create" (fun () -> Ri.create circuit target) in
  let frames = ref 0 in
  let continue = ref true in
  while !continue && !frames < max_steps do
    let ran, dt = timed (fun () -> span "reach_inc.frame" (fun () -> Ri.frame t)) in
    if ran then begin
      incr frames;
      sample "reach_inc.frame_s" dt
    end
    else continue := false
  done;
  let r = Ri.result t in
  if !tracing then begin
    List.iter
      (fun (f : Ri.frame) ->
        addi "reach_inc.blocking_clauses" f.Ri.blocking_clauses;
        addi "reach_inc.new_cubes" f.Ri.new_cubes;
        add "reach_inc.new_states" f.Ri.frontier_states)
      r.Ri.frames;
    let st = S.stats (Ri.solver t) in
    addi "reach_inc.learnts_kept" (Stats.get st "learnts_kept");
    addi "reach_inc.watcher_visits" (Stats.get st "watcher_visits");
    addi "reach.frames" (List.length r.Ri.frames)
  end;
  (r.Ri.total_states, r.Ri.fixpoint)

let reach_query (name, circuit, target, expected) ~max_steps engine =
  let ename = reach_engine_name engine in
  let run () =
    let states, fixpoint =
      span ("reach." ^ ename) (fun () ->
          match engine with
          | Session -> run_session circuit target ~max_steps
          | Rebuild e ->
            let trace = if !tracing then frame_sink () else Trace.null in
            let r = Rh.backward ~engine:e ~max_steps ~trace circuit target in
            addi "reach.frames" (List.length r.Rh.steps);
            (r.Rh.total_states, r.Rh.fixpoint))
    in
    { card = states; check = (fun () -> fixpoint && states = expected ()) }
  in
  { label = Printf.sprintf "reach/%s/%s" name ename; run }

(* The reference state count of a reach case: the BDD engine's fixpoint,
   computed once, untimed. Every engine must agree with it. *)
let reach_case (name, circuit, target) ~max_steps =
  let expected =
    memo (fun () -> (Rh.backward ~engine:Rh.E_bdd ~max_steps circuit target).Rh.total_states)
  in
  (name, circuit, target, expected)

let wide_picks rng = [ pick_seeded ~upper:true ~frames:(2, 4) rng ~inputs:3 ~latches:10 ~gates:50 ]

let wide_cases picks =
  let suite name =
    let e = Ps_gen.Suite.find name in
    (name, Lazy.force e.Ps_gen.Suite.circuit, Ps_gen.Suite.default_target e)
  in
  let j = 12 in
  let l = 12 in
  [
    (Printf.sprintf "johnson%d" j, Ps_gen.Counters.johnson ~bits:j (), T.upper_half ~bits:j);
    ( Printf.sprintf "lfsr%d" l,
      Ps_gen.Lfsr.fibonacci ~bits:l ~taps:(Ps_gen.Lfsr.default_taps l) (),
      T.upper_half ~bits:l );
    suite "rand_c";
    suite "fifo16";
    suite "arbiter6";
  ]
  @ List.mapi (fun i p -> (Printf.sprintf "rand%d" i, seeded_circuit p, p.target)) picks

let narrow_bits = 10

let narrow_cases () =
  [
    ( Printf.sprintf "count%d" narrow_bits,
      Ps_gen.Counters.binary ~bits:narrow_bits (),
      T.value ~bits:narrow_bits 0 );
  ]

let reach_queries cases ~max_steps =
  List.concat_map
    (fun case ->
      let case = reach_case case ~max_steps in
      List.map (reach_query case ~max_steps) reach_engines)
    cases

(* --- workloads -------------------------------------------------------------- *)

(* [pick rng] draws a workload's seeded random cases; [setup picks]
   builds its inputs from them: everything before the first enumeration
   call. *)
type workload = {
  wname : string;
  pick : Ps_util.Rng.t -> seeded list;
  setup : seeded list -> query list;
}

let workloads =
  [
    {
      wname = "allsat-dense";
      pick = allsat_picks;
      setup = (fun picks -> List.mapi dense_query (allsat_inputs picks));
    };
    {
      wname = "allsat-sharded";
      pick = allsat_picks;
      setup = (fun picks -> List.map sharded_query (allsat_inputs picks));
    };
    {
      wname = "preimage-lifted";
      pick = preimage_picks;
      setup =
        (fun picks ->
          List.concat_map
            (fun inst -> List.map (preimage_query inst) preimage_engines)
            (preimage_instances picks));
    };
    {
      wname = "reach-wide";
      pick = wide_picks;
      setup = (fun picks -> reach_queries (wide_cases picks) ~max_steps:1000);
    };
    {
      wname = "reach-narrow";
      pick = (fun _ -> []);
      setup =
        (fun _ -> reach_queries (narrow_cases ()) ~max_steps:((1 lsl narrow_bits) + 2));
    };
  ]

(* --- the measuring loop ----------------------------------------------------- *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let maximum xs = List.fold_left Float.max 0.0 xs

let attempted = ref 0
let failed = ref 0
let heap_peak_words = ref 0
let verbose = ref false

let note_heap () =
  let st = Gc.quick_stat () in
  heap_peak_words := max !heap_peak_words (max st.Gc.heap_words st.Gc.top_heap_words)

(* --- calibration ------------------------------------------------------------ *)

(* On a shared host the speed of the machine drifts: for tens of seconds
   at a time every query runs 20-30% slower, whatever the process does,
   and a fastest-of-N time cannot see past a slow period that outlasts
   the run. So every time is also measured against a fixed calibration
   kernel, pure OCaml that touches no [lib/] code: hashtable inserts and
   small allocations, cache-resident like a solver's work. Of the kernels
   tried (this one, a pointer chase through 8 MB, a short-lived
   allocation loop, a cache-resident array walk) it tracked the host's
   slow periods best. The kernel runs before every query and
   every set-up, outside their timing; a pass's times are scaled by
   [calib_ref_s] over the median kernel time of that pass. Times are thus
   seconds at a reference speed at which the kernel takes [calib_ref_s]:
   a change to the solver moves them, a slow period of the host slows the
   kernel too and cancels out. *)
let calib_ref_s = 0.0045

(* One round: 10,000 inserts into a table whose buckets were allocated
   once, then a clear. The cells are small, so they go on the minor heap;
   the round starts on an empty one and does not fill it, so no
   collection runs inside it and its time does not depend on the major
   heap that the queries left behind. Clearing before the next minor
   collection leaves nothing to promote, so the kernel leaves the major
   heap, and [heap_peak_mb], as it found them. *)
let calib_table = lazy (Hashtbl.create 8192)

let calib_round () =
  let h = Lazy.force calib_table in
  for i = 1 to 10_000 do Hashtbl.replace h ((i * 7919) land 0xffff) [ i; i ] done;
  let n = Hashtbl.length h in
  Hashtbl.clear h;
  n

let calib_rounds = 8

let calibrate () =
  let t = ref 0.0 in
  for _ = 1 to calib_rounds do
    Gc.minor ();
    t := !t +. snd (timed (fun () -> Sys.opaque_identity (calib_round ())))
  done;
  !t

(* One pass over the queries: each query's time, scaled to the reference
   speed, and its result cardinality. The heap is collected before every
   query, after the calibration and outside the query's timing, so a
   query does not pay for the garbage of the one before it. *)
let run_pass queries =
  let calibs = ref [] in
  let raw =
    List.map
      (fun q ->
        calibs := calibrate () :: !calibs;
        Gc.full_major ();
        let attributed0 = total "attributed_s" in
        let o, dt = timed q.run in
        let ok = o.check () in
        incr attempted;
        if not ok then begin
          incr failed;
          Printf.eprintf "pbench: query %s FAILED\n%!" q.label
        end;
        add "unattributed_s" (dt -. (total "attributed_s" -. attributed0));
        note_heap ();
        if !verbose then Printf.eprintf "  %-40s %10.4f s  card=%g\n%!" q.label dt o.card;
        (dt, o.card))
      queries
  in
  let scale = calib_ref_s /. median !calibs in
  if !verbose then Printf.eprintf "pass: scale %.4f\n%!" scale;
  List.map (fun (dt, card) -> (dt *. scale, card)) raw

(* Closed loop: whole passes over the queries until [seconds] have
   elapsed. Returns, per query, its scaled times over the passes and its
   cardinality; and the number of passes. *)
let run_passes queries ~seconds =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then acc else go (run_pass queries :: acc)
  in
  let passes = go [] in
  ( List.mapi (fun i (_, card) -> (List.map (fun p -> fst (List.nth p i)) passes, card))
      (List.hd passes),
    List.length passes )

let setup_reps = 51

(* Set-up is repeated [setup_reps] times, each after a calibration and a
   minor collection; [setup_s] is the median, scaled like the queries'
   times. (A full collection instead raised [heap_peak_mb] by 3-5 MB.) *)
let measure_setup w ~seed =
  let picks = w.pick (Ps_util.Rng.create ~seed) in
  let results =
    List.init setup_reps (fun _ ->
        let c = calibrate () in
        Gc.minor ();
        (c, timed (fun () -> w.setup picks)))
  in
  let scale = calib_ref_s /. median (List.map fst results) in
  if !verbose then
    Printf.eprintf "set-up: %.6f s unscaled, scale %.4f\n%!"
      (median (List.map (fun (_, (_, t)) -> t) results)) scale;
  ( fst (snd (List.hd (List.rev results))),
    scale *. median (List.map (fun (_, (_, t)) -> t) results) )

(* --- output --------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0) !attempted !failed body

(* A query's time in a run: the fastest of its scaled times. *)
let query_time samples = List.fold_left Float.min infinity samples

(* End-to-end metrics of one pass made of each query's time. *)
let end_to_end queries ~setup_s =
  let queries = List.map (fun (ts, c) -> (query_time ts, c)) queries in
  let times = List.map fst queries in
  let wall = List.fold_left ( +. ) 0.0 times in
  let logsum = List.fold_left (fun a t -> a +. log (Float.max t 1e-7)) 0.0 times in
  [
    ("wall_s", wall, "s");
    ("query_geomean_ms", 1000.0 *. exp (logsum /. float_of_int (List.length times)), "ms");
    ("query_max_s", maximum times, "s");
    ("solutions_per_s", List.fold_left (fun a (_, c) -> a +. c) 0.0 queries /. wall, "1/s");
    ("setup_s", setup_s, "s");
    ( "heap_peak_mb",
      float_of_int (!heap_peak_words * (Sys.word_size / 8)) /. 1048576.0,
      "MB" );
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0

let percentile_ms k q =
  let xs = Option.value ~default:[] (Hashtbl.find_opt samples k) in
  if q >= 1.0 then 1000.0 *. maximum xs else 1000.0 *. median xs

(* Per-layer metrics: traced totals divided by the number of traced
   passes (set-up layers by the number of set-ups), so every count and
   time is per pass. *)
let per_layer ~passes ~untraced_wall ~traced_wall ~gc0 ~gc1 =
  let per k = total k /. float_of_int passes in
  let per_setup k = total k /. float_of_int setup_reps in
  let s k = (k ^ "_s", per (k ^ "_s"), "s") in
  let c k = (k, per k, "count") in
  let props = total "solver.propagations" in
  [
    ("instance.make_s", per_setup "instance.make", "s");
    ("instance.cnf_clauses", per_setup "instance.cnf_clauses", "count");
    ("dimacs.parse_s", per_setup "dimacs.parse", "s");
    ("dimacs.bytes", per_setup "dimacs.bytes", "bytes");
    ("solver.load_s", per "solver.load", "s");
    c "solver.propagations"; c "solver.conflicts"; c "solver.decisions";
    c "solver.solve_calls"; c "solver.watcher_visits";
    ("solver.visits_per_prop", ratio (total "solver.watcher_visits") props, "ratio");
    ( "solver.blocker_skip_frac",
      ratio (total "solver.blocker_skips")
        (total "solver.blocker_skips" +. total "solver.watcher_visits"),
      "frac" );
    c "solver.reduce_dbs"; c "solver.arena_gcs";
    ("solver.arena_words", per "solver.arena_words", "words");
    ("solver.props_per_s", ratio props (total "solver.busy_s"), "1/s");
    ("blocking.enumerate_s", per "blocking.enumerate", "s");
    ( "blocking.solve_s",
      per "blocking.enumerate" -. per "lifting.s" -. per "store.append_s",
      "s" );
    c "blocking.cubes"; c "blocking.sat_calls";
    ( "blocking.decisions_per_cube",
      ratio (total "blocking.decisions") (total "blocking.cubes"),
      "ratio" );
    c "lifting.calls";
    ("lifting.s", per "lifting.s", "s");
    ("lifting.free_frac", ratio (total "lifting.free") (total "lifting.width"), "frac");
    ("sds.search_s", per "sds.search", "s");
    c "sds.search_nodes"; c "sds.memo_hits";
    ( "sds.memo_hit_frac",
      ratio (total "sds.memo_hits") (total "sds.search_nodes"),
      "frac" );
    c "sds.ternary_decides"; c "sds.unsat_prunes"; c "sds.sat_calls";
    c "graph.nodes";
    ("graph.solutions_per_node", ratio (total "graph.solutions") (total "graph.nodes"), "ratio");
    ("graph.count_s", per "graph.count", "s");
    ("graph.union_s", per "graph.union", "s");
    ("bdd.preimage_s", per "bdd.preimage", "s");
    c "bdd.nodes_allocated";
    c "reach.frames";
    ("reach.frame_p50_ms", percentile_ms "reach.frame_s" 0.5, "ms");
    ("reach.frame_max_ms", percentile_ms "reach.frame_s" 1.0, "ms");
  ]
  @ List.map
      (fun e -> let n = reach_engine_name e in ("reach." ^ n ^ ".s", per ("reach." ^ n), "s"))
      reach_engines
  @ [
      ("reach_inc.create_s", per "reach_inc.create", "s");
      ("reach_inc.frame_p50_ms", percentile_ms "reach_inc.frame_s" 0.5, "ms");
      ("reach_inc.frame_max_ms", percentile_ms "reach_inc.frame_s" 1.0, "ms");
      c "reach_inc.blocking_clauses";
      ( "reach_inc.cubes_per_state",
        ratio (total "reach_inc.new_cubes") (total "reach_inc.new_states"),
        "ratio" );
      c "reach_inc.learnts_kept"; c "reach_inc.watcher_visits";
      c "parallel.shards"; c "parallel.resplits";
      s "parallel.shard_busy";
      ("parallel.shard_max_s", percentile_ms "parallel.shard_s" 1.0 /. 1000.0, "s");
      ( "parallel.busy_frac",
        ratio (total "parallel.shard_busy_s") (total "parallel.capacity_s"),
        "frac" );
      s "parallel.tail";
      ( "parallel.wasted_cube_frac",
        ratio (total "parallel.wasted_cubes") (total "parallel.shard_cubes"),
        "frac" );
      s "store.append";
      c "store.appends"; c "store.subsumed";
      ("store.bytes", per "store.bytes", "bytes");
      ("store.finalize_s", per "store.finalize", "s");
      ("store.recover_s", per "store.recover", "s");
      ("verify.run_s", per "verify.run", "s");
      c "verify.sat_calls";
      ( "gc.minor_mwords",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6 /. float_of_int passes,
        "Mwords" );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
        /. float_of_int passes,
        "count" );
      s "unattributed";
      ("trace_overhead_frac", ratio traced_wall untraced_wall -. 1.0, "frac");
    ]

(* --- main ------------------------------------------------------------------- *)

(* --- end-to-end runs over several processes ---------------------------- *)

(* On a shared virtual machine a run's speed also depends on the process:
   back-to-back processes of one workload read 1.4 ms or 2.1 ms for the
   same set-up, and their passes differ alike. An untraced run is
   therefore made of [processes] child processes, one after the other,
   each measuring for [seconds / processes]. A query's time is its
   fastest over all their passes; [setup_s] is the median of their
   set-up medians. *)
let processes = 4

(* A child's report is one line: setup_s, peak heap words, attempted,
   failed, then each query's cardinality and its scaled times. *)
let child w ~seed ~seconds =
  let queries, setup_s = measure_setup w ~seed in
  note_heap ();
  let times, _ = run_passes queries ~seconds in
  print_endline
    (String.concat " "
       ((json_num setup_s :: List.map string_of_int [ !heap_peak_words; !attempted; !failed ])
       @ List.map
           (fun (ts, c) -> String.concat "," (json_num c :: List.map json_num ts))
           times))

type report = { r_setup : float; r_heap : int; r_attempted : int; r_failed : int;
                r_queries : (float list * float) list }

let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim line)) with
  | Unix.WEXITED 0, setup :: heap :: att :: fail :: rest ->
    let query field =
      match List.map float_of_string (String.split_on_char ',' field) with
      | c :: ts -> (ts, c)
      | [] -> failwith "pbench: empty query report"
    in
    { r_setup = float_of_string setup; r_heap = int_of_string heap;
      r_attempted = int_of_string att; r_failed = int_of_string fail;
      r_queries = List.map query rest }
  | _ -> failwith "pbench: a measuring process failed"

(* Merges the children's reports into the globals and returns each
   query's scaled times over all passes (with its cardinality) and
   [setup_s]. *)
let merge reports =
  List.iter
    (fun r ->
      attempted := !attempted + r.r_attempted;
      failed := !failed + r.r_failed;
      heap_peak_words := max !heap_peak_words r.r_heap)
    reports;
  let first = List.hd reports in
  let times =
    List.fold_left
      (fun acc r -> List.map2 (fun (ts, c) (ts', _) -> (ts @ ts', c)) acc r.r_queries)
      first.r_queries (List.tl reports)
  in
  (times, median (List.map (fun r -> r.r_setup) reports))

let with_work_dir f =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Fun.protect ~finally:(fun () -> try Sys.rmdir work_dir with Sys_error _ -> ()) f

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10.0 in
  let trace = ref 0 in
  let commit = ref "unknown" in
  let child_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "REV source revision, for the stamp");
      ("--verbose", Arg.Set verbose, " per-query times on stderr");
      ("--child", Arg.Set child_mode, " measure one share of an untraced run (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "pbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.wname) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "pbench: --trace is 0 or 1"; exit 2);
  if !child_mode then with_work_dir (fun () -> child w ~seed:!seed ~seconds:!seconds)
  else begin
    Printf.printf
      "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
       \"jobs\": %d, \"nproc\": %d, \"processes\": %d, \"ocaml\": %S, \"commit\": %S}}\n%!"
      w.wname !seed (json_num !seconds) !trace jobs
      (Domain.recommended_domain_count ()) processes Sys.ocaml_version !commit;
    if !trace = 0 then begin
      let args =
        Array.of_list
          ([ Sys.executable_name; "--child"; "--workload"; w.wname; "--seed";
             string_of_int !seed; "--seconds"; json_num (!seconds /. float_of_int processes) ]
          @ if !verbose then [ "--verbose" ] else [])
      in
      let times, setup_s = merge (List.init processes (fun _ -> run_child args)) in
      print_result (end_to_end times ~setup_s)
    end
    else
      with_work_dir (fun () ->
          (* half the time untraced (the overhead baseline), half traced *)
          let queries, _ = measure_setup w ~seed:!seed in
          let half = !seconds /. 2.0 in
          let untraced, _ = run_passes queries ~seconds:half in
          tracing := true;
          Hashtbl.reset totals;
          Hashtbl.reset samples;
          let queries, _ = measure_setup w ~seed:!seed in
          let gc0 = Gc.quick_stat () in
          let traced, passes = run_passes queries ~seconds:half in
          let gc1 = Gc.quick_stat () in
          tracing := false;
          let wall qs = List.fold_left (fun a (ts, _) -> a +. query_time ts) 0.0 qs in
          print_result
            (per_layer ~passes ~untraced_wall:(wall untraced) ~traced_wall:(wall traced)
               ~gc0 ~gc1))
  end
