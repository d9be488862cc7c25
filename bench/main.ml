(* Benchmark harness: regenerates every table and figure of the
   evaluation (see DESIGN.md §4 and EXPERIMENTS.md), then runs one
   Bechamel micro-benchmark per table/figure.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2 fig1  -- selected experiments
     dune exec bench/main.exe -- notables     -- Bechamel section only *)

module E = Preimage.Engine
module I = Preimage.Instance
module BE = Preimage.Bdd_engine
module Ch = Preimage.Check
module Rh = Preimage.Reach
module N = Ps_circuit.Netlist
module Sg = Ps_allsat.Solution_graph
module Cube = Ps_allsat.Cube
module T = Ps_gen.Targets
module Suite = Ps_gen.Suite
module Stats = Ps_util.Stats

(* --- tiny fixed-width table printer ------------------------------------- *)

(* When [csv_dir] is set (via the "csv" argument), every table is also
   written as <dir>/<slug>.csv for downstream plotting. *)
let csv_dir = ref None

let csv_slug title =
  let stop = try String.index title ':' with Not_found -> String.length title in
  String.sub title 0 stop
  |> String.lowercase_ascii
  |> String.map (fun c -> if c = ' ' || c = '(' || c = ')' then '_' else c)

let write_csv title header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (csv_slug title ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun row -> output_string oc (String.concat "," row ^ "\n"))
          (header :: rows))

let print_table title header rows =
  write_csv title header rows;
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
         row)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows;
  flush stdout

let f2 x = Printf.sprintf "%.2f" x
let ms t = Printf.sprintf "%.1f" (t *. 1000.0)
let g x = Printf.sprintf "%g" x

(* Cap for the blocking engines so exponential enumerations terminate the
   run with a DNF marker instead of hanging it. *)
let blocking_cap = 20_000

(* Optional global budget/trace, set from --timeout / --conflict-limit /
   --trace command-line flags. A fresh budget is built per engine run so
   every table row gets the full allowance. *)
let bench_timeout = ref None
let bench_conflicts = ref None
let bench_trace = ref Ps_util.Trace.null

(* --jobs N runs the smoke workloads through guiding-path parallel
   enumeration on N worker domains, and sets the worker count of the
   "parallel" speedup experiment (default 4 there). *)
let bench_jobs = ref None

let bench_budget () =
  match (!bench_timeout, !bench_conflicts) with
  | None, None -> None
  | timeout_s, conflicts -> Some (Ps_util.Budget.make ?timeout_s ?conflicts ())

let run_capped m inst =
  E.run ?budget:(bench_budget ()) ~trace:!bench_trace ~limit:blocking_cap m inst

let mark_dnf r cell = if E.complete r then cell else cell ^ "*"

(* --- Table 1: benchmark characteristics ---------------------------------- *)

let table1 () =
  let rows =
    List.map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let i, l, gates, o = N.stats c in
        let inst = I.make c (Suite.default_target e) in
        let cone = N.cone inst.I.augmented [ inst.I.root ] in
        let cone_size =
          Array.fold_left (fun n b -> if b then n + 1 else n) 0 cone
        in
        let aig, _ = Ps_circuit.Aig.of_netlist c in
        [
          e.Suite.name;
          string_of_int i;
          string_of_int l;
          string_of_int gates;
          string_of_int (Ps_circuit.Aig.num_nodes aig);
          string_of_int (Ps_circuit.Opt.depth c);
          string_of_int (Ps_circuit.Opt.max_fanout c);
          string_of_int o;
          string_of_int cone_size;
          e.Suite.description;
        ])
      Suite.all
  in
  print_table "Table 1: benchmark circuits"
    [ "circuit"; "PI"; "FF"; "gates"; "aig"; "depth"; "fanout"; "PO"; "cone";
      "description" ]
    rows

(* --- Table 2: all-SAT engine comparison ----------------------------------- *)

(* The paper's classical baseline: one blocking clause per minterm all the
   way, by way of a lift that keeps every position fixed — the lifted
   loop never hands over to chronological enumeration. *)
let blocking_classic ?limit solver proj =
  let width = Ps_allsat.Project.width proj in
  let t0 = Unix.gettimeofday () in
  let r =
    Ps_allsat.Blocking.enumerate ?limit ?budget:(bench_budget ())
      ~trace:!bench_trace
      ~lift:(fun _ -> Array.make width true)
      solver proj
  in
  (r, Unix.gettimeofday () -. t0)

let table2_row ~name ~engine ~complete ~graph ~solutions ~cubes stats time_s =
  let dnf cell = if complete then cell else cell ^ "*" in
  [
    name; engine; dnf (g solutions); dnf (string_of_int cubes); graph;
    string_of_int (Stats.get stats "sat_calls");
    string_of_int (Stats.get stats "conflicts"); ms time_s;
  ]

let table2_header =
  [ "circuit"; "engine"; "solutions"; "cubes"; "graph"; "sat_calls"; "conflicts"; "ms" ]

let table2 () =
  let rows =
    List.concat_map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let inst = I.make c (Suite.default_target e) in
        let name = e.Suite.name in
        let engines =
          List.map
            (fun m ->
              let r = run_capped m inst in
              table2_row ~name ~engine:(E.method_name m) ~complete:(E.complete r)
                ~graph:
                  (match r.E.graph_nodes with
                  | Some n -> string_of_int n
                  | None -> "-")
                ~solutions:r.E.solutions ~cubes:r.E.n_cubes (E.stats r)
                r.E.time_s)
            E.all_methods
        in
        let r, time_s =
          blocking_classic ~limit:blocking_cap (I.solver inst) inst.I.proj
        in
        let cubes = List.length r.Ps_allsat.Run.cubes in
        engines
        @ [
            table2_row ~name ~engine:"blocking-classic"
              ~complete:(Ps_allsat.Run.complete r) ~graph:"-"
              ~solutions:(float_of_int cubes) ~cubes r.Ps_allsat.Run.stats time_s;
          ])
      Suite.medium
  in
  print_table
    "Table 2: one-step preimage, SAT all-solutions engines (loose target: \
     top state bit set; * = cube cap hit)"
    table2_header rows;
  (* Random 3-CNFs, projected onto their first variables: sparse near the
     threshold (where the blocking loop rarely or never hands over to
     chronological enumeration), moderate below it. Median of three runs
     per engine. *)
  let random_3cnf ~nvars ~ratio ~seed =
    let rng = Ps_util.Rng.create ~seed in
    Ps_sat.Cnf.of_clauses ~nvars
      (List.init
         (int_of_float (ratio *. float_of_int nvars))
         (fun _ ->
           List.init 3 (fun _ ->
               Ps_sat.Lit.make (Ps_util.Rng.int rng nvars) (Ps_util.Rng.bool rng))))
  in
  let median3 f =
    let runs = List.sort (fun (_, a) (_, b) -> compare a b) [ f (); f (); f () ] in
    List.nth runs 1
  in
  let rows =
    List.concat_map
      (fun (nvars, ratio, width, seed) ->
        let cnf = random_3cnf ~nvars ~ratio ~seed in
        let proj = Ps_allsat.Project.of_vars (Array.init width Fun.id) in
        let solver () =
          let s = Ps_sat.Solver.create () in
          ignore (Ps_sat.Solver.load s cnf);
          s
        in
        let name = Printf.sprintf "rand3-n%d-r%.1f-w%d-s%d" nvars ratio width seed in
        let row engine (r, time_s) =
          let cubes = List.length r.Ps_allsat.Run.cubes in
          table2_row ~name ~engine ~complete:(Ps_allsat.Run.complete r) ~graph:"-"
            ~solutions:(float_of_int cubes) ~cubes r.Ps_allsat.Run.stats time_s
        in
        [
          row "blocking"
            (median3 (fun () ->
                 let t0 = Unix.gettimeofday () in
                 let r =
                   Ps_allsat.Blocking.enumerate ~limit:blocking_cap
                     ?budget:(bench_budget ()) ~trace:!bench_trace (solver ()) proj
                 in
                 (r, Unix.gettimeofday () -. t0)));
          row "blocking-classic"
            (median3 (fun () -> blocking_classic ~limit:blocking_cap (solver ()) proj));
        ])
      [
        (200, 4.1, 40, 1); (200, 4.1, 40, 2); (200, 4.1, 40, 3);
        (120, 3.8, 24, 1); (120, 3.8, 24, 2); (120, 3.8, 24, 3);
      ]
  in
  print_table
    "Table 2b: random 3-CNF, minterm blocking vs the classical loop \
     (median of 3 runs)"
    ("instance" :: List.tl table2_header) rows

(* --- Table 3: SDS vs BDD --------------------------------------------------- *)

let table3 () =
  let rows =
    List.concat_map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        List.map
          (fun (tname, target) ->
            let inst = I.make c target in
            let r_sds = E.run E.Sds inst in
            let r_bdd = BE.run inst in
            let agree =
              abs_float
                (r_sds.E.solutions -. BE.count r_bdd ~nstate:(I.num_state inst))
              < 0.5
            in
            [
              e.Suite.name;
              tname;
              g r_sds.E.solutions;
              (match r_sds.E.graph_nodes with Some n -> string_of_int n | None -> "-");
              ms r_sds.E.time_s;
              string_of_int r_bdd.BE.preimage_size;
              string_of_int r_bdd.BE.nodes_allocated;
              ms r_bdd.BE.time_s;
              (if agree then "yes" else "NO!");
            ])
          [ ("loose", Suite.default_target e); ("tight", Suite.tight_target e) ])
      Suite.medium
  in
  print_table
    "Table 3: SDS (solution graph) vs BDD baseline (result nodes / total \
     allocated nodes)"
    [ "circuit"; "target"; "solutions"; "sds_nodes"; "sds_ms"; "bdd_nodes";
      "bdd_alloc"; "bdd_ms"; "agree" ]
    rows

(* --- Table 4: backward reachability ----------------------------------------- *)

let table4 () =
  let cases =
    [
      ("count8", Ps_gen.Counters.binary ~bits:8 (), T.all_ones ~bits:8);
      ("mod10", Ps_gen.Counters.modulo ~bits:4 ~m:10 (), T.value ~bits:4 9);
      ("traffic", Ps_gen.Fsm.traffic (), T.of_strings [ "0111" ]);
      ("seqdet8", Ps_gen.Fsm.seq_detector ~pattern:"10110111" (), T.upper_half ~bits:8);
      ("arbiter4", Ps_gen.Fsm.arbiter ~clients:4 (), T.upper_half ~bits:8);
      ("johnson8", Ps_gen.Counters.johnson ~bits:8 (), T.value ~bits:8 0x0F);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, circuit, target) ->
        List.map
          (fun engine ->
            let r = Rh.backward ~engine circuit target in
            [
              name;
              Rh.engine_name engine;
              string_of_int (List.length r.Rh.steps);
              g r.Rh.total_states;
              (if r.Rh.fixpoint then "yes" else "no");
              ms r.Rh.time_s;
            ])
          [ Rh.E_sds; Rh.E_sds_dynamic; Rh.E_blocking_lift; Rh.E_bdd ])
      cases
  in
  print_table "Table 4: backward reachability to fixpoint"
    [ "circuit"; "engine"; "steps"; "states"; "fixpoint"; "ms" ]
    rows

(* --- Figure 1: runtime vs number of solutions -------------------------------- *)

let fig1 () =
  let rows =
    List.concat_map
      (fun bits ->
        let c = Ps_gen.Counters.binary ~bits () in
        let inst = I.make c (T.upper_half ~bits) in
        let solutions = (2.0 ** float_of_int (bits - 1)) +. 1.0 in
        let row engine ~complete stats time_s =
          let dnf cell = if complete then cell else cell ^ "*" in
          [
            string_of_int bits; g solutions; engine; dnf (ms time_s);
            dnf (string_of_int (Stats.get stats "sat_calls"));
          ]
        in
        let classic, time_s =
          blocking_classic ~limit:blocking_cap (I.solver inst) inst.I.proj
        in
        List.map
          (fun m ->
            let r = run_capped m inst in
            row (E.method_name m) ~complete:(E.complete r) (E.stats r) r.E.time_s)
          [ E.Sds; E.BlockingLift; E.Blocking ]
        @ [
            row "blocking-classic" ~complete:(Ps_allsat.Run.complete classic)
              classic.Ps_allsat.Run.stats time_s;
          ])
      [ 4; 6; 8; 10; 12; 14; 16 ]
  in
  print_table
    "Figure 1: runtime vs solution count (binary counter, target = top bit; \
     series per engine; * = cube cap hit)"
    [ "bits"; "solutions"; "engine"; "ms"; "sat_calls" ]
    rows

(* --- Figure 2: solution-graph compression -------------------------------------- *)

let fig2 () =
  let rows =
    List.filter_map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let inst = I.make c (Suite.default_target e) in
        let r_sds = E.run E.Sds inst in
        let r_lift = run_capped E.BlockingLift inst in
        match r_sds.E.graph_nodes with
        | Some nodes ->
          Some
            [
              e.Suite.name;
              g r_sds.E.solutions;
              string_of_int nodes;
              mark_dnf r_lift (string_of_int r_lift.E.n_cubes);
              f2 (r_sds.E.solutions /. float_of_int (max nodes 1));
            ]
        | None -> None)
      Suite.medium
  in
  print_table
    "Figure 2: solution-graph compression (solutions per graph node; lifted \
     cube count for comparison)"
    [ "circuit"; "solutions"; "graph_nodes"; "lifted_cubes"; "sol/node" ]
    rows

(* --- Figure 3: cube enlargement effectiveness ------------------------------------ *)

let fig3 () =
  let rows =
    List.map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let inst = I.make c (Suite.default_target e) in
        let r = run_capped E.BlockingLift inst in
        let width = Ps_allsat.Project.width inst.I.proj in
        let cubes = E.cubes r in
        let n = max (List.length cubes) 1 in
        let avg_fixed =
          float_of_int (List.fold_left (fun a c -> a + Cube.num_fixed c) 0 cubes)
          /. float_of_int n
        in
        [
          e.Suite.name;
          string_of_int width;
          mark_dnf r (string_of_int (List.length cubes));
          f2 avg_fixed;
          f2 (float_of_int width -. avg_fixed);
          f2 (100.0 *. (1.0 -. (avg_fixed /. float_of_int width)));
        ])
      Suite.medium
  in
  print_table
    "Figure 3: justification lifting (average fixed vs free literals per cube)"
    [ "circuit"; "width"; "cubes"; "avg_fixed"; "avg_free"; "%don't-care" ]
    rows

(* --- Figure 4: success-driven learning ablation ------------------------------------ *)

let fig4 () =
  let rows =
    List.map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let inst = I.make c (Suite.default_target e) in
        let r_on = E.run E.Sds inst in
        let r_off = E.run E.SdsNoMemo inst in
        let nodes r = Stats.get (E.stats r) "search_nodes" in
        let stat_on k = string_of_int (Stats.get (E.stats r_on) k) in
        [
          e.Suite.name;
          string_of_int (nodes r_on);
          stat_on "memo_hits";
          stat_on "sat_calls";
          stat_on "model_hits";
          ms r_on.E.time_s;
          string_of_int (nodes r_off);
          ms r_off.E.time_s;
          f2 (float_of_int (nodes r_off) /. float_of_int (max (nodes r_on) 1));
        ])
      Suite.medium
  in
  print_table
    "Figure 4 (ablation): success-driven learning on vs off (search nodes, \
     node reduction factor)"
    [ "circuit"; "nodes_on"; "memo_hits"; "sat_calls"; "model_hits"; "ms_on";
      "nodes_off"; "ms_off"; "node_ratio" ]
    rows

(* --- Figure 5: XOR-dominated regime ----------------------------------------------- *)

let fig5 () =
  (* Target = the LFSR feedback bit (an XOR over k tap stages). Its
     preimage is a parity condition: justification lifting cannot drop
     any tap literal (XOR gates need all fanins), so blocking-lift
     enumerates 2^(k-1) cubes, while the parity solution graph has O(k)
     nodes. This isolates the regime where the solution graph is the
     only compact representation. *)
  let bits = 16 in
  let rows =
    List.concat_map
      (fun k ->
        let taps = List.init k Fun.id in
        let c = Ps_gen.Lfsr.fibonacci ~bits ~taps () in
        (* feedback feeds state bit 0: target s'_0 = 1 *)
        let inst = I.make c (T.bit_high ~bits 0) in
        List.map
          (fun m ->
            let r = run_capped m inst in
            [
              string_of_int k;
              E.method_name m;
              mark_dnf r (g r.E.solutions);
              mark_dnf r (string_of_int r.E.n_cubes);
              (match r.E.graph_nodes with Some n -> string_of_int n | None -> "-");
              ms r.E.time_s;
            ])
          [ E.Sds; E.BlockingLift ])
      [ 2; 4; 6; 8; 10; 12 ]
  in
  print_table
    "Figure 5: XOR-dominated targets (16-bit LFSR, target = feedback bit over \
     k taps; lifting cannot enlarge, the solution graph stays linear)"
    [ "taps"; "engine"; "solutions"; "cubes"; "graph"; "ms" ]
    rows

(* --- Table 5: k-step preimage (extension) ------------------------------------------ *)

let table5 () =
  (* One unrolled all-SAT query vs k chained one-step preimages. *)
  let cases =
    [
      ("count8", Ps_gen.Counters.binary ~bits:8 (), T.all_ones ~bits:8);
      ("traffic", Ps_gen.Fsm.traffic (), T.of_strings [ "0111" ]);
      ("seqdet8", Ps_gen.Fsm.seq_detector ~pattern:"10110111" (), T.upper_half ~bits:8);
      ("rand_b", Lazy.force (Suite.find "rand_b").Suite.circuit,
       Suite.default_target (Suite.find "rand_b"));
    ]
  in
  let rows =
    List.concat_map
      (fun (name, circuit, target) ->
        List.map
          (fun k ->
            let r = Preimage.Kstep.preimage circuit target ~k in
            (* chained baseline *)
            let t0 = Unix.gettimeofday () in
            let rec chain cubes k =
              if k = 0 || cubes = [] then cubes
              else chain (E.cubes (E.run E.Sds (I.make circuit cubes))) (k - 1)
            in
            let chained = chain target k in
            let chained_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            let nstate = List.length (N.latches circuit) in
            let chained_count =
              E.solution_count_of_cubes nstate chained
            in
            [
              name;
              string_of_int k;
              g r.Preimage.Kstep.solutions;
              ms r.Preimage.Kstep.time_s;
              g chained_count;
              Printf.sprintf "%.1f" chained_ms;
              (if abs_float (r.Preimage.Kstep.solutions -. chained_count) < 0.5
               then "yes" else "NO!");
            ])
          [ 2; 4; 8 ])
      cases
  in
  print_table
    "Table 5 (extension): exact k-step preimage — single unrolled query (sds) \
     vs k chained one-step queries"
    [ "circuit"; "k"; "unrolled"; "unroll_ms"; "chained"; "chain_ms"; "agree" ]
    rows

(* --- Figure 6: cover quality after minimization (extension) -------------------------- *)

let fig6 () =
  let rows =
    List.map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        let inst = I.make c (Suite.default_target e) in
        let r = run_capped E.BlockingLift inst in
        let width = Ps_allsat.Project.width inst.I.proj in
        let minimized = Ps_allsat.Cube_set.minimize (E.cubes r) in
        let sds = E.run E.Sds inst in
        [
          e.Suite.name;
          mark_dnf r (string_of_int r.E.n_cubes);
          string_of_int (List.length minimized);
          string_of_int (List.length (Ps_allsat.Cube_set.reduce (E.cubes r)));
          string_of_int sds.E.n_cubes;
          (if Ps_allsat.Cube_set.equal_union width (E.cubes r) minimized then "yes"
           else "NO!");
        ])
      Suite.medium
  in
  print_table
    "Figure 6 (extension): two-level minimization of the lifted cover vs the \
     solution graph's disjoint path cover"
    [ "circuit"; "lifted"; "minimized"; "subsume-only"; "sds_paths"; "union_ok" ]
    rows

(* --- Table 6: all-solutions ATPG (extension) ----------------------------------------- *)

let table6 () =
  (* Complete stuck-at test sets via the all-SAT engines (full-scan view:
     latch outputs are controllable pseudo-inputs). *)
  let cases =
    [ "s27"; "mod10"; "traffic"; "seqdet"; "rand_a" ]
    |> List.map (fun name ->
           (name, Lazy.force (Suite.find name).Suite.circuit))
  in
  let rows =
    List.concat_map
      (fun (name, circuit) ->
        List.map
          (fun m ->
            let t0 = Unix.gettimeofday () in
            let reports = Preimage.Atpg.all ~method_:m circuit in
            let time = Unix.gettimeofday () -. t0 in
            let n, detectable, vectors, avg_cover = Preimage.Atpg.summary reports in
            let sat_calls =
              List.fold_left (fun acc r -> acc + r.Preimage.Atpg.sat_calls) 0 reports
            in
            [
              name;
              E.method_name m;
              string_of_int n;
              string_of_int detectable;
              g vectors;
              f2 avg_cover;
              string_of_int sat_calls;
              ms time;
            ])
          [ E.Sds; E.BlockingLift ])
      cases
  in
  print_table
    "Table 6 (extension): complete stuck-at test sets via all-solutions SAT \
     (all faults, full-scan)"
    [ "circuit"; "engine"; "faults"; "detectable"; "vectors"; "avg_cover";
      "sat_calls"; "ms" ]
    rows

(* --- Figure 7: decision-order sensitivity (extension) -------------------------------- *)

let fig7 () =
  let variants =
    [
      ("natural", I.Natural, E.Sds);
      ("cone-first", I.Cone_first, E.Sds);
      ("reverse", I.Reverse, E.Sds);
      ("dynamic", I.Natural, E.SdsDynamic);
    ]
  in
  let rows =
    List.concat_map
      (fun e ->
        let c = Lazy.force e.Suite.circuit in
        List.map
          (fun (oname, order, method_) ->
            let inst = I.make ~order c (Suite.default_target e) in
            let r = E.run method_ inst in
            [
              e.Suite.name;
              oname;
              string_of_int (Stats.get (E.stats r) "search_nodes");
              string_of_int (Stats.get (E.stats r) "memo_hits");
              (match r.E.graph_nodes with Some n -> string_of_int n | None -> "-");
              ms r.E.time_s;
            ])
          variants)
      Suite.medium
  in
  print_table
    "Figure 7 (extension): SDS decision-order sensitivity (static orders + \
     dynamic frontier-first decisions, which build a free BDD)"
    [ "circuit"; "order"; "search_nodes"; "memo_hits"; "graph"; "ms" ]
    rows

(* --- smoke profile + JSON summary ----------------------------------------- *)

(* [--json FILE] writes a machine-readable summary of the smoke profile:
   one row per (workload, engine) with wall time, conflicts, propagations
   and derived propagations/sec, so CI can track the solver's hot-path
   throughput across commits. *)
let json_file = ref None

type smoke_row = {
  sm_workload : string;
  sm_engine : string;
  sm_time_s : float;
  sm_solutions : float;
  sm_cubes : int;
  sm_conflicts : int;
  sm_propagations : int;
  sm_jobs : int;        (* worker domains; 1 = plain sequential run *)
  sm_speedup : float;   (* sequential time / this row's time; 1.0 if n/a *)
}

let smoke_rows : smoke_row list ref = ref []

let record_smoke ?(jobs = 1) ?(speedup = 1.0) ~workload ~engine ~time_s
    ~solutions ~cubes stats =
  smoke_rows :=
    {
      sm_workload = workload;
      sm_engine = engine;
      sm_time_s = time_s;
      sm_solutions = solutions;
      sm_cubes = cubes;
      sm_conflicts = Stats.get stats "conflicts";
      sm_propagations = Stats.get stats "propagations";
      sm_jobs = jobs;
      sm_speedup = speedup;
    }
    :: !smoke_rows

(* Durable-store rows: what the crash-safe log costs on the write path
   ("memory" vs "store" pairs) and what a crash recovery saves over
   starting from scratch ("scratch" vs "resume" pairs). *)
type persist_row = {
  pr_workload : string;
  pr_mode : string;      (* "memory" | "store" | "scratch" | "resume" *)
  pr_cubes : int;
  pr_time_s : float;
  pr_ratio : float;      (* time vs the paired baseline row; 1.0 for baselines *)
  pr_bytes : int;        (* final log size; 0 for in-memory runs *)
  pr_verified : bool;    (* independent certification passed (all-SAT logs) *)
}

let persist_rows : persist_row list ref = ref []

let write_json_summary path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row r =
        let pps =
          if r.sm_time_s > 0.0 then float_of_int r.sm_propagations /. r.sm_time_s
          else 0.0
        in
        Printf.sprintf
          {|    {"workload":"%s","engine":"%s","time_s":%.6f,"solutions":%g,"cubes":%d,"conflicts":%d,"propagations":%d,"props_per_sec":%.0f,"jobs":%d,"speedup":%.3f}|}
          r.sm_workload r.sm_engine r.sm_time_s r.sm_solutions r.sm_cubes
          r.sm_conflicts r.sm_propagations pps r.sm_jobs r.sm_speedup
      in
      let persist_row r =
        Printf.sprintf
          {|    {"workload":"%s","mode":"%s","cubes":%d,"time_s":%.6f,"ratio":%.3f,"bytes":%d,"verified":%b}|}
          r.pr_workload r.pr_mode r.pr_cubes r.pr_time_s r.pr_ratio r.pr_bytes
          r.pr_verified
      in
      output_string oc "{\n  \"schema\": \"preimage-bench-smoke/5\",\n  \"rows\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map row !smoke_rows));
      output_string oc "\n  ],\n  \"persist\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map persist_row !persist_rows));
      output_string oc "\n  ]\n}\n")

let smoke () =
  (* Circuit workload: every engine on one mid-size instance. With
     --jobs N the runs go through guiding-path parallel enumeration, so
     the artifact reflects the sharded hot path. *)
  let bits = 10 in
  let c = Ps_gen.Counters.binary ~bits () in
  let inst = I.make c (T.upper_half ~bits) in
  let workload = Printf.sprintf "count%d-upper" bits in
  let jobs = !bench_jobs in
  List.iter
    (fun m ->
      let r =
        E.run
          ?budget:(bench_budget ())
          ~trace:!bench_trace ~limit:blocking_cap ?jobs m inst
      in
      record_smoke ?jobs ~workload ~engine:(E.method_name m) ~time_s:r.E.time_s
        ~solutions:r.E.solutions ~cubes:r.E.n_cubes (E.stats r))
    E.all_methods;
  (* DIMACS workload: the Tseitin CNF round-tripped through the DIMACS
     text format, enumerated with the plain blocking engine. This is the
     propagation-throughput probe: no lifting, no graph — nearly all the
     time is the CDCL inner loop. *)
  let bits = 12 in
  let c = Ps_gen.Counters.binary ~bits () in
  let inst = I.make c (T.upper_half ~bits) in
  let cnf = Ps_sat.Dimacs.parse_string (Ps_sat.Dimacs.to_string inst.I.cnf) in
  let solver = Ps_sat.Solver.create () in
  ignore (Ps_sat.Solver.load solver cnf);
  ignore (Ps_sat.Solver.add_clause solver [ Ps_sat.Lit.pos inst.I.root ]);
  let t0 = Unix.gettimeofday () in
  let r =
    Ps_allsat.Blocking.enumerate ~limit:blocking_cap solver inst.I.proj
  in
  let time_s = Unix.gettimeofday () -. t0 in
  let cubes = List.length r.Ps_allsat.Run.cubes in
  record_smoke
    ~workload:(Printf.sprintf "dimacs-count%d" bits)
    ~engine:"blocking" ~time_s ~solutions:(float_of_int cubes) ~cubes
    r.Ps_allsat.Run.stats;
  let rows =
    List.rev_map
      (fun r ->
        let pps =
          if r.sm_time_s > 0.0 then float_of_int r.sm_propagations /. r.sm_time_s
          else 0.0
        in
        [
          r.sm_workload; r.sm_engine; g r.sm_solutions;
          string_of_int r.sm_cubes; string_of_int r.sm_conflicts;
          string_of_int r.sm_propagations; Printf.sprintf "%.0f" pps;
          string_of_int r.sm_jobs; ms r.sm_time_s;
        ])
      !smoke_rows
  in
  print_table "Smoke profile: per-engine throughput"
    [ "workload"; "engine"; "solutions"; "cubes"; "conflicts"; "propagations";
      "props/sec"; "jobs"; "ms" ]
    rows

(* --- parallel speedup: guiding-path sharding vs sequential ------------------- *)

(* Full minterm enumerations of 2^15 solutions. Sequentially, the
   blocking loop hands over to chronological enumeration after a few
   dozen models, so no clause database grows with the cube count and
   sharding buys nothing on one core; what is left is the multicore
   gain minus the shards' set-up. The vpp columns (watcher visits per
   propagation) show the database pressure of each run. Records one
   sequential row and one jobs-N row per workload (with the measured
   speedup) in the JSON summary. *)
let parallel_exp () =
  let jobs = Option.value !bench_jobs ~default:4 in
  let entries =
    [
      ("count16-upper", Ps_gen.Counters.binary ~bits:16 ());
      ("lfsr16-upper", Lazy.force (Suite.find "lfsr16").Suite.circuit);
    ]
  in
  let rows =
    List.map
      (fun (name, circuit) ->
        let inst = I.make circuit (T.upper_half ~bits:16) in
        let seq =
          E.run ?budget:(bench_budget ()) ~trace:!bench_trace E.Blocking inst
        in
        let par =
          E.run ?budget:(bench_budget ()) ~trace:!bench_trace ~jobs E.Blocking
            inst
        in
        let speedup = seq.E.time_s /. Float.max par.E.time_s 1e-9 in
        let vpp r =
          let st = E.stats r in
          float_of_int (Stats.get st "watcher_visits")
          /. Float.max 1.0 (float_of_int (Stats.get st "propagations"))
        in
        let workload = "parallel-" ^ name in
        record_smoke ~workload ~engine:"blocking" ~time_s:seq.E.time_s
          ~solutions:seq.E.solutions ~cubes:seq.E.n_cubes (E.stats seq);
        record_smoke ~jobs ~speedup ~workload ~engine:"blocking"
          ~time_s:par.E.time_s ~solutions:par.E.solutions ~cubes:par.E.n_cubes
          (E.stats par);
        [
          name;
          g seq.E.solutions;
          ms seq.E.time_s;
          ms par.E.time_s;
          string_of_int jobs;
          string_of_int (Stats.get (E.stats par) "shards");
          f2 speedup;
          f2 (vpp seq);
          f2 (vpp par);
          (if seq.E.solutions = par.E.solutions then "yes" else "NO");
        ])
      entries
  in
  print_table
    (Printf.sprintf
       "Parallel: guiding-path sharding, sequential vs %d worker domains" jobs)
    [ "workload"; "solutions"; "seq_ms"; "par_ms"; "jobs"; "shards";
      "speedup"; "seq_vpp"; "par_vpp"; "agree" ]
    rows

(* --- persist: durable-store overhead and resume payoff ----------------------- *)

(* Two questions about the crash-safe solution store. (1) Write path:
   how much does streaming every cube through the CRC'd log (plus the
   write-time subsumption trie) slow a full enumeration down, and does
   the resulting log pass independent certification? (2) Recovery:
   given a fixpoint run killed halfway, how does resuming from the log
   compare to recomputing from scratch? *)
let persist_exp () =
  let module St = Ps_store.Store in
  let module Verify = Ps_store.Verify in
  let tmp () = Filename.temp_file "psbench" ".log" in
  let rm p = if Sys.file_exists p then Sys.remove p in
  let file_size p = (Unix.stat p).Unix.st_size in
  let record ~workload ~mode ~cubes ~time_s ~ratio ~bytes ~verified =
    persist_rows :=
      { pr_workload = workload; pr_mode = mode; pr_cubes = cubes;
        pr_time_s = time_s; pr_ratio = ratio; pr_bytes = bytes;
        pr_verified = verified }
      :: !persist_rows
  in
  (* (1) all-SAT write-path overhead on a full blocking enumeration *)
  let bits = 10 in
  let c = Ps_gen.Counters.binary ~bits () in
  let inst = I.make c (T.upper_half ~bits) in
  let workload = Printf.sprintf "count%d-upper" bits in
  let enumerate ?sink () =
    let solver = Ps_sat.Solver.create () in
    ignore (Ps_sat.Solver.load solver inst.I.cnf);
    ignore (Ps_sat.Solver.add_clause solver [ Ps_sat.Lit.pos inst.I.root ]);
    let t0 = Unix.gettimeofday () in
    let r = Ps_allsat.Blocking.enumerate ~limit:blocking_cap ?sink solver inst.I.proj in
    (List.length r.Ps_allsat.Run.cubes, Unix.gettimeofday () -. t0)
  in
  let mem_cubes, mem_t = enumerate () in
  record ~workload ~mode:"memory" ~cubes:mem_cubes ~time_s:mem_t ~ratio:1.0
    ~bytes:0 ~verified:false;
  let path = tmp () in
  let w =
    St.create ~path
      { St.engine = "allsat"; width = Ps_allsat.Project.width inst.I.proj;
        vars = Array.copy inst.I.proj.Ps_allsat.Project.vars;
        source = workload; source_crc = 0 }
  in
  let st_cubes, st_t = enumerate ~sink:(St.sink w) () in
  St.finalize w ~complete:true ();
  let bytes = file_size path in
  let full_cnf = Ps_sat.Cnf.add_clause inst.I.cnf [ Ps_sat.Lit.pos inst.I.root ] in
  let verified =
    match St.recover ~path with
    | Error _ -> false
    | Ok r -> Verify.certifiable r = None && Verify.ok (Verify.run ~cnf:full_cnf r)
  in
  rm path;
  let ratio = if mem_t > 0.0 then st_t /. mem_t else 1.0 in
  record ~workload ~mode:"store" ~cubes:st_cubes ~time_s:st_t ~ratio ~bytes
    ~verified;
  (* (2) resume-vs-scratch on the reachability fixpoint: kill at half
     the frames, then measure only the restart's cost *)
  let r_workload = "count12-reach" in
  let circuit = Ps_gen.Counters.binary ~bits:12 () in
  let target = T.value ~bits:12 0 in
  let max_steps = 48 in
  let scratch = Preimage.Reach_inc.run ~max_steps circuit target in
  let frames = List.length scratch.Preimage.Reach_inc.frames in
  record ~workload:r_workload ~mode:"scratch" ~cubes:frames
    ~time_s:scratch.Preimage.Reach_inc.time_s ~ratio:1.0 ~bytes:0
    ~verified:false;
  let rpath = tmp () in
  let w =
    St.create ~checkpoint_every:0 ~path:rpath
      { St.engine = "reach"; width = 12; vars = [||]; source = r_workload;
        source_crc = 0 }
  in
  let _ =
    Preimage.Reach_inc.run ~max_steps:(max_steps / 2) ~store:w circuit target
  in
  (* the writer is deliberately never finalized: this is the killed run *)
  (match St.resume ~checkpoint_every:0 ~path:rpath () with
  | Error e -> prerr_endline ("persist: resume failed: " ^ e)
  | Ok (rec_, w2) ->
      let t0 = Unix.gettimeofday () in
      let resumed =
        Preimage.Reach_inc.run ~max_steps ~store:w2 ~resume:rec_ circuit target
      in
      let resume_t = Unix.gettimeofday () -. t0 in
      St.finalize w2 ~complete:resumed.Preimage.Reach_inc.fixpoint ();
      let agree =
        List.length resumed.Preimage.Reach_inc.frames = frames
        && resumed.Preimage.Reach_inc.total_states
           = scratch.Preimage.Reach_inc.total_states
      in
      let ratio =
        if scratch.Preimage.Reach_inc.time_s > 0.0 then
          resume_t /. scratch.Preimage.Reach_inc.time_s
        else 1.0
      in
      record ~workload:r_workload ~mode:"resume"
        ~cubes:(List.length resumed.Preimage.Reach_inc.frames)
        ~time_s:resume_t ~ratio ~bytes:(file_size rpath) ~verified:agree);
  rm rpath;
  let rows =
    List.rev_map
      (fun r ->
        [ r.pr_workload; r.pr_mode; string_of_int r.pr_cubes; ms r.pr_time_s;
          f2 r.pr_ratio; string_of_int r.pr_bytes;
          (if r.pr_verified then "yes" else "-") ])
      !persist_rows
  in
  print_table "Persist: durable-store overhead and resume payoff"
    [ "workload"; "mode"; "cubes/frames"; "ms"; "ratio"; "log_bytes";
      "certified" ]
    rows

(* --- consistency gate --------------------------------------------------------- *)

let sanity () =
  (* One cross-engine equality check per small-suite circuit before
     trusting the numbers above. *)
  let failures = ref [] in
  List.iter
    (fun e ->
      let c = Lazy.force e.Suite.circuit in
      let inst = I.make c (Suite.default_target e) in
      let results = List.map (fun m -> E.run m inst) E.all_methods in
      match Ch.engines_agree inst results with
      | Ok _ -> ()
      | Error msg -> failures := (e.Suite.name ^ ": " ^ msg) :: !failures)
    Suite.small;
  match !failures with
  | [] -> print_endline "\nsanity: all engines agree on the small suite"
  | fs ->
    List.iter (fun f -> print_endline ("SANITY FAILURE: " ^ f)) fs;
    exit 1

(* --- Bechamel micro-benchmarks: one per table/figure ---------------------------- *)

let bechamel_section () =
  let open Bechamel in
  let counter8 = Ps_gen.Counters.binary ~bits:8 () in
  let inst8 = I.make counter8 (T.upper_half ~bits:8) in
  let traffic = Ps_gen.Fsm.traffic () in
  let rand_b_entry = Suite.find "rand_b" in
  let rand_b = Lazy.force rand_b_entry.Suite.circuit in
  let inst_rb = I.make rand_b (Suite.default_target rand_b_entry) in
  let c12 = Ps_gen.Counters.binary ~bits:12 () in
  let i12 = I.make c12 (T.upper_half ~bits:12) in
  let tests =
    Test.make_grouped ~name:"preimage"
      [
        Test.make ~name:"table1-circuit-stats"
          (Staged.stage (fun () ->
               List.iter
                 (fun e -> ignore (N.stats (Lazy.force e.Suite.circuit)))
                 Suite.all));
        Test.make ~name:"table2-sds-count8"
          (Staged.stage (fun () -> ignore (E.run E.Sds inst8)));
        Test.make ~name:"table2-blocking-lift-count8"
          (Staged.stage (fun () -> ignore (E.run E.BlockingLift inst8)));
        Test.make ~name:"table3-bdd-count8"
          (Staged.stage (fun () -> ignore (BE.run inst8)));
        Test.make ~name:"table4-reach-traffic"
          (Staged.stage (fun () ->
               ignore
                 (Rh.backward ~engine:Rh.E_sds traffic (T.of_strings [ "0111" ]))));
        Test.make ~name:"fig1-sds-count12"
          (Staged.stage (fun () -> ignore (E.run E.Sds i12)));
        Test.make ~name:"fig2-graph-union"
          (Staged.stage (fun () ->
               let man = Sg.new_man ~width:12 in
               let rng = Ps_util.Rng.create ~seed:3 in
               ignore
                 (List.fold_left
                    (fun acc c -> Sg.union acc (Sg.of_cube man c))
                    (Sg.zero man)
                    (T.random ~bits:12 ~ncubes:40 ~density:0.4 rng))));
        Test.make ~name:"fig3-lifting-rand_b"
          (Staged.stage (fun () -> ignore (E.run E.BlockingLift inst_rb)));
        Test.make ~name:"fig4-sds-nomemo-count8"
          (Staged.stage (fun () -> ignore (E.run E.SdsNoMemo inst8)));
        Test.make ~name:"fig7-sds-conefirst-count8"
          (Staged.stage
             (let inst = I.make ~order:I.Cone_first counter8 (T.upper_half ~bits:8) in
              fun () -> ignore (E.run E.Sds inst)));
        Test.make ~name:"table6-atpg-s27"
          (Staged.stage
             (let s27 = Ps_gen.Iscas.s27 () in
              fun () -> ignore (Preimage.Atpg.all s27)));
        Test.make ~name:"table5-kstep-traffic"
          (Staged.stage (fun () ->
               ignore
                 (Preimage.Kstep.preimage traffic (T.of_strings [ "0111" ]) ~k:4)));
        Test.make ~name:"fig6-minimize-count8"
          (Staged.stage
             (let r = E.run E.BlockingLift inst8 in
              fun () -> ignore (Ps_allsat.Cube_set.minimize (E.cubes r))));
        Test.make ~name:"fig5-sds-parity-lfsr"
          (Staged.stage
             (let c = Ps_gen.Lfsr.fibonacci ~bits:16 ~taps:[ 0; 1; 2; 3; 4; 5; 6; 7 ] () in
              let inst = I.make c (T.bit_high ~bits:16 0) in
              fun () -> ignore (E.run E.Sds inst)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%.3f" (t /. 1e6)
        | _ -> "?"
      in
      rows := [ name; est ] :: !rows)
    results;
  print_table "Bechamel micro-benchmarks (OLS estimate)"
    [ "benchmark"; "ms/run" ]
    (List.sort compare !rows)

(* --- main ------------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --timeout S / --conflict-limit N / --trace FILE set the global
     budget/trace for every engine run; remaining words select experiments. *)
  let rec parse_flags acc = function
    | "--timeout" :: v :: rest ->
      bench_timeout := Some (float_of_string v);
      parse_flags acc rest
    | "--conflict-limit" :: v :: rest ->
      bench_conflicts := Some (int_of_string v);
      parse_flags acc rest
    | "--trace" :: path :: rest ->
      let sink, close = Ps_util.Trace.jsonl_file path in
      bench_trace := sink;
      at_exit close;
      parse_flags acc rest
    | "--json" :: path :: rest ->
      json_file := Some path;
      parse_flags acc rest
    | "--jobs" :: v :: rest ->
      bench_jobs := Some (int_of_string v);
      parse_flags acc rest
    | a :: rest -> parse_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = parse_flags [] args in
  let args =
    if List.mem "csv" args then begin
      csv_dir := Some "bench_out";
      List.filter (fun a -> a <> "csv") args
    end
    else args
  in
  let want name = args = [] || List.mem name args in
  let experiments =
    [
      ("table1", table1); ("table2", table2); ("table3", table3);
      ("table4", table4); ("fig1", fig1); ("fig2", fig2); ("fig3", fig3);
      ("fig4", fig4); ("fig5", fig5); ("table5", table5); ("fig6", fig6);
      ("table6", table6); ("fig7", fig7); ("smoke", smoke);
      ("parallel", parallel_exp);
      ("persist", persist_exp);
    ]
  in
  if not (List.mem "notables" args) then begin
    sanity ();
    List.iter (fun (name, f) -> if want name then f ()) experiments
  end;
  if args = [] || List.mem "bechamel" args || List.mem "notables" args then
    bechamel_section ();
  match !json_file with None -> () | Some path -> write_json_summary path
