(* Regenerates the tables and figures of the evaluation (see DESIGN.md
   §4 and EXPERIMENTS.md) after a cross-engine sanity gate. Timings for
   speed claims come from perfbench, not from here.

   Usage:
     dune exec bench/main.exe                 -- every table and figure
     dune exec bench/main.exe -- table2 fig1  -- selected experiments *)

module E = Preimage.Engine
module I = Preimage.Instance
module BE = Preimage.Bdd_engine
module Ch = Preimage.Check
module Rh = Preimage.Reach
module N = Ps_circuit.Netlist
module Cube = Ps_allsat.Cube
module T = Ps_gen.Targets
module Suite = Ps_gen.Suite
module Stats = Ps_util.Stats

(* --- tiny fixed-width table printer ------------------------------------- *)

(* A cell holding a decimal number (a timing or a ratio) counts as at
   least [decimal_width] wide, so the columns and the rule under the
   header keep their width when a run prints such a number with one
   digit fewer. *)
let decimal_width = 8

let print_table title header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let cell_width cell =
    if String.contains cell '.' then max decimal_width (String.length cell)
    else String.length cell
  in
  let width c =
    List.fold_left (fun w row -> max w (cell_width (List.nth row c))) 0 all
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

let run_capped m inst = E.run ~limit:blocking_cap m inst

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
   way, with no hand-over to chronological enumeration, stopping after
   [blocking_cap] cubes. *)
let blocking_classic solver proj =
  let module S = Ps_sat.Solver in
  let t0 = Unix.gettimeofday () in
  let cubes = ref [] and n = ref 0 and calls = ref 0 in
  let rec loop () =
    if !n >= blocking_cap then `CubeLimit
    else begin
      incr calls;
      match S.solve solver with
      | S.Unsat -> `Complete
      | S.Unknown -> `Cancelled (* no budget: not reached *)
      | S.Sat -> (
        let cube = Ps_allsat.Project.cube_of_model proj (S.model solver) in
        cubes := cube :: !cubes;
        incr n;
        match Ps_allsat.Project.blocking_clause proj cube with
        | [] -> `Complete
        | clause -> if S.add_clause solver clause then loop () else `Complete)
    end
  in
  let stopped = loop () in
  let stats = Stats.create () in
  Stats.add stats "cubes" !n;
  Stats.add stats "sat_calls" !calls;
  Stats.merge ~into:stats (S.stats solver);
  ( { Ps_allsat.Run.cubes = List.rev !cubes; witnesses = None; graph = None;
      stats; stopped },
    Unix.gettimeofday () -. t0 )

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
          blocking_classic (I.solver inst) inst.I.proj
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
                   Ps_allsat.Blocking.enumerate ~limit:blocking_cap (solver ()) proj
                 in
                 (r, Unix.gettimeofday () -. t0)));
          row "blocking-classic"
            (median3 (fun () -> blocking_classic (solver ()) proj));
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
          blocking_classic (I.solver inst) inst.I.proj
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
            (* why SDS costs what it does: search nodes, memo hits and
               solver calls (the SDS counters; blocking-lift has none) *)
            let stat k =
              if m = E.Sds then string_of_int (Stats.get (E.stats r) k) else "-"
            in
            [
              string_of_int k;
              E.method_name m;
              mark_dnf r (g r.E.solutions);
              mark_dnf r (string_of_int r.E.n_cubes);
              (match r.E.graph_nodes with Some n -> string_of_int n | None -> "-");
              stat "search_nodes";
              stat "memo_hits";
              stat "sat_calls";
              ms r.E.time_s;
            ])
          [ E.Sds; E.BlockingLift ])
      [ 2; 4; 6; 8; 10; 12 ]
  in
  print_table
    "Figure 5: XOR-dominated targets (16-bit LFSR, target = feedback bit over \
     k taps; lifting cannot enlarge, the solution graph stays linear)"
    [ "taps"; "engine"; "solutions"; "cubes"; "graph"; "nodes"; "memo_hits";
      "sat_calls"; "ms" ]
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
            (* the last step's SDS paths: disjoint, so the count is a sum *)
            let chained_count =
              List.fold_left
                (fun n c -> n +. Ps_allsat.Cube.minterm_count c)
                0.0 chained
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

(* --- main ------------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let experiments =
    [
      ("table1", table1); ("table2", table2); ("table3", table3);
      ("table4", table4); ("fig1", fig1); ("fig2", fig2); ("fig3", fig3);
      ("fig4", fig4); ("fig5", fig5); ("table5", table5); ("fig6", fig6);
      ("table6", table6); ("fig7", fig7);
    ]
  in
  (match List.filter (fun a -> not (List.mem_assoc a experiments)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf "main.exe: not an experiment: %s\nusage: main.exe [%s]...\n"
      (String.concat " " unknown)
      (String.concat "|" (List.map fst experiments));
    exit 2);
  sanity ();
  List.iter
    (fun (name, f) -> if args = [] || List.mem name args then f ())
    experiments
