(* preimage_cli: command-line front end.

   Subcommands:
     suite                        list the benchmark suite (Table-1 data)
     info CIRCUIT                 show a circuit (.bench text + stats)
     preimage CIRCUIT [opts]      one-step preimage with a chosen engine
     reach CIRCUIT [opts]         backward-reachability fixpoint
     allsat FILE.cnf [opts]       projected all-SAT over a DIMACS formula *)

open Cmdliner
module E = Preimage.Engine
module I = Preimage.Instance
module R = Preimage.Reach
module N = Ps_circuit.Netlist
module St = Ps_store.Store

(* --- shared argument parsing ------------------------------------------ *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("preimage_cli: " ^ s); exit 2) fmt

(* Bad circuit or target arguments exit 2 with the offending argument
   named, like every other usage error. *)
let load_circuit spec =
  match Ps_gen.Suite.find spec with
  | entry -> Lazy.force entry.Ps_gen.Suite.circuit
  | exception Not_found -> (
    if not (Sys.file_exists spec) then
      die "CIRCUIT: unknown circuit %S (not a suite name — try 'suite' — and not a file)"
        spec;
    try
      if Filename.check_suffix spec ".v" then Ps_circuit.Verilog.parse_file spec
      else Ps_circuit.Bench.parse_file spec
    with Failure msg | Sys_error msg -> die "CIRCUIT: %s: %s" spec msg)

let parse_target circuit spec =
  let bits = List.length (N.latches circuit) in
  let names = Array.of_list (List.map (N.name circuit) (N.latches circuit)) in
  try Ps_gen.Targets.parse ~bits ~names spec
  with Failure msg | Invalid_argument msg -> die "--target %S: %s" spec msg

let circuit_arg =
  let doc = "Circuit: a suite name (see $(b,suite)) or a .bench file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let target_arg =
  let doc =
    "Target next-state set: $(b,all-ones), $(b,all-zeros), $(b,upper-half), \
     $(b,value:)$(i,K), $(b,expr:)$(i,E) (boolean expression over the \
     latch names, e.g. $(b,expr:q3&!q0)), or comma-separated cubes over \
     the state bits (LSB first), e.g. $(b,1-0,01-)."
  in
  Arg.(value & opt string "upper-half" & info [ "t"; "target" ] ~docv:"TARGET" ~doc)

(* --- budget / trace flags (shared by preimage and allsat) -------------- *)

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget. When it expires the run stops and reports the \
           cubes found so far (stop reason $(b,deadline)).")

let conflict_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "conflict-limit" ] ~docv:"N"
        ~doc:
          "Total SAT conflict budget across the whole run; deterministic \
           alternative to $(b,--timeout).")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Append structured trace events (restarts, cubes, phases, stop \
           reason) to FILE as JSON lines. See docs/OBSERVABILITY.md.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Guiding-path parallel enumeration on $(i,N) worker domains: the \
           projection space is split into disjoint prefix shards, each \
           enumerated in its own solver. The merged result is deterministic \
           — the same cubes for any $(i,N), including $(b,--jobs 1). \
           Budgets are enforced globally across all shards.")

let check_jobs = function
  | Some j when j < 1 -> die "--jobs must be at least 1 (got %d)" j
  | jobs -> jobs

let make_budget timeout_s conflicts =
  (match timeout_s with
  | Some t when t < 0.0 -> die "--timeout must be non-negative (got %g)" t
  | _ -> ());
  (match conflicts with
  | Some c when c < 0 -> die "--conflict-limit must be non-negative (got %d)" c
  | _ -> ());
  match (timeout_s, conflicts) with
  | None, None -> None
  | _ -> Some (Ps_util.Budget.make ?timeout_s ?conflicts ())

(* --- durable solution store flags (shared by reach and allsat) -------- *)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Stream the run into a crash-safe solution log: every enumerated \
           cube is appended (CRC-framed, subsumption-deduplicated) with \
           periodic checkpoints, so a killed run can be continued with \
           $(b,--resume) and a finished one certified with $(b,verify).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a killed run from its solution log: recover to the last \
           valid checkpoint (discarding any torn tail), reload everything \
           found so far, and continue appending to the same file.")

let print_store_stats w =
  let s = St.stats w in
  Format.printf
    "store: %s records=%d bytes=%d cubes=%d subsumed_on_write=%d \
     checkpoints=%d@."
    (St.path w) s.St.records s.St.bytes s.St.cubes s.St.subsumed_on_write
    s.St.checkpoints

let with_trace path f =
  match path with
  | None -> f Ps_util.Trace.null
  | Some p ->
    let sink, close =
      try Ps_util.Trace.jsonl_file p
      with Sys_error msg -> die "cannot open trace file: %s" msg
    in
    Fun.protect ~finally:close (fun () -> f sink)

(* --- suite ------------------------------------------------------------ *)

let suite_cmd =
  let run () =
    Format.printf "%-10s %6s %7s %6s %8s  %s@." "name" "inputs" "latches"
      "gates" "outputs" "description";
    List.iter
      (fun e ->
        let c = Lazy.force e.Ps_gen.Suite.circuit in
        let i, l, g, o = N.stats c in
        Format.printf "%-10s %6d %7d %6d %8d  %s@." e.Ps_gen.Suite.name i l g o
          e.Ps_gen.Suite.description)
      Ps_gen.Suite.all
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the benchmark circuits")
    Term.(const run $ const ())

(* --- info ------------------------------------------------------------- *)

let info_cmd =
  let verilog =
    Arg.(value & flag & info [ "verilog" ] ~doc:"Emit structural Verilog instead of .bench.")
  in
  let run spec verilog =
    let c = load_circuit spec in
    let text =
      if verilog then Ps_circuit.Verilog.to_string ~module_name:"top" c
      else Ps_circuit.Bench.to_string c
    in
    Format.printf "%a@.@.%s" N.pp c text
  in
  Cmd.v (Cmd.info "info" ~doc:"Print a circuit as .bench or Verilog text")
    Term.(const run $ circuit_arg $ verilog)

(* --- preimage ---------------------------------------------------------- *)

let engine_conv =
  let parse = function
    | "sds" -> Ok E.Sds
    | "sds-dynamic" -> Ok E.SdsDynamic
    | "sds-nomemo" -> Ok E.SdsNoMemo
    | "blocking" -> Ok E.Blocking
    | "blocking-lift" -> Ok E.BlockingLift
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (E.method_name m))

let preimage_cmd =
  let engine =
    Arg.(
      value
      & opt engine_conv E.Sds
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:
            "$(b,sds) (default), $(b,sds-dynamic), $(b,sds-nomemo), \
             $(b,blocking), or $(b,blocking-lift).")
  in
  let include_inputs =
    Arg.(
      value & flag
      & info [ "inputs" ] ~doc:"Enumerate (state, input) pairs, not just states.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Cap enumerated cubes (all engines).")
  in
  let show_cubes =
    Arg.(value & flag & info [ "cubes" ] ~doc:"Print every solution cube.")
  in
  let bdd = Arg.(value & flag & info [ "bdd" ] ~doc:"Also run the BDD baseline.") in
  let ksteps =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~docv:"K"
          ~doc:"Exact $(i,K)-step preimage via time-frame expansion.")
  in
  let universal =
    Arg.(
      value & flag
      & info [ "universal" ]
          ~doc:"Universal (forall-input) preimage: states guaranteed to land \
                in the target.")
  in
  let run spec target_spec engine include_inputs limit show_cubes bdd ksteps
      universal timeout conflict_limit trace_file jobs =
    let jobs = check_jobs jobs in
    if jobs <> None && (ksteps <> None || universal) then
      die "--jobs is not supported with -k or --universal";
    let circuit = load_circuit spec in
    let target = parse_target circuit target_spec in
    match (ksteps, universal) with
    | Some _, true -> die "-k and --universal are mutually exclusive"
    | Some k, false ->
      let r = Preimage.Kstep.preimage ~method_:engine circuit target ~k in
      Format.printf "k=%d engine=%s solutions=%g cubes=%d time=%.4fs@." k
        (E.method_name engine) r.Preimage.Kstep.solutions
        (List.length (Preimage.Kstep.cubes r))
        r.Preimage.Kstep.time_s;
      if show_cubes then
        List.iter
          (fun c -> Format.printf "  %a@." Ps_allsat.Cube.pp c)
          (Preimage.Kstep.cubes r)
    | None, true ->
      let r = Preimage.Universal.preimage ~method_:engine circuit target in
      Format.printf "universal preimage: %g states, %d cubes, time=%.4fs@."
        r.Preimage.Universal.count
        (List.length r.Preimage.Universal.cubes)
        r.Preimage.Universal.time_s;
      if show_cubes then
        List.iter
          (fun c -> Format.printf "  %a@." Ps_allsat.Cube.pp c)
          r.Preimage.Universal.cubes
    | None, false ->
    let instance = I.make ~include_inputs circuit target in
    let budget = make_budget timeout conflict_limit in
    let r =
      with_trace trace_file (fun trace ->
          E.run ?budget ~trace ?limit ?jobs engine instance)
    in
    Format.printf
      "engine=%s solutions=%g cubes=%d%s time=%.4fs sat_calls=%d conflicts=%d@."
      (E.method_name r.E.method_) r.E.solutions r.E.n_cubes
      (match r.E.graph_nodes with
      | Some n -> Printf.sprintf " graph_nodes=%d" n
      | None -> "")
      r.E.time_s
      (Ps_util.Stats.get (E.stats r) "sat_calls")
      (Ps_util.Stats.get (E.stats r) "conflicts");
    if not (E.complete r) then
      Format.printf "(partial: stopped on %s)@."
        (Ps_allsat.Run.stopped_name (E.stopped r));
    if show_cubes then
      List.iter
        (fun c -> Format.printf "  %a@." (Ps_allsat.Project.pp_cube instance.I.proj) c)
        (E.cubes r);
    if bdd then begin
      let br = Preimage.Bdd_engine.run instance in
      Format.printf
        "bdd baseline: states=%g result_nodes=%d allocated_nodes=%d time=%.4fs@."
        (Preimage.Bdd_engine.count br ~nstate:(I.num_state instance))
        br.Preimage.Bdd_engine.preimage_size
        br.Preimage.Bdd_engine.nodes_allocated br.Preimage.Bdd_engine.time_s
    end
  in
  Cmd.v
    (Cmd.info "preimage" ~doc:"Compute a one-step preimage")
    Term.(
      const run $ circuit_arg $ target_arg $ engine $ include_inputs $ limit
      $ show_cubes $ bdd $ ksteps $ universal $ timeout_arg $ conflict_limit_arg
      $ trace_file_arg $ jobs_arg)

(* --- reach -------------------------------------------------------------- *)

let reach_cmd =
  let engine =
    let parse = function
      | "sds" -> Ok R.E_sds
      | "sds-dynamic" -> Ok R.E_sds_dynamic
      | "blocking-lift" -> Ok R.E_blocking_lift
      | "bdd" -> Ok R.E_bdd
      | "incremental" -> Ok R.E_incremental
      | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
    in
    Arg.(
      value
      & opt (Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (R.engine_name e))) R.E_sds
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:"$(b,sds) (default), $(b,sds-dynamic), $(b,blocking-lift), \
                $(b,bdd), or $(b,incremental).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Append structured trace events (one frame_start/frame_done pair \
             per fixpoint frame, plus solver events) to FILE as JSON lines. \
             See docs/OBSERVABILITY.md.")
  in
  let max_steps =
    Arg.(value & opt int 1000 & info [ "max-steps" ] ~docv:"N" ~doc:"Step cap.")
  in
  let trace_from =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"BITS"
          ~doc:
            "After the fixpoint, extract a witness input trace from this \
             state (0/1 string, state bit 0 first).")
  in
  let run spec target_spec engine max_steps trace_from trace_file store_file
      resume_file =
    let circuit = load_circuit spec in
    let target = parse_target circuit target_spec in
    let nstate = List.length (N.latches circuit) in
    let r =
      with_trace trace_file (fun trace ->
          (* Reach sessions checkpoint once per frame (auto checkpoints
             off), so the log's segments are exactly the frames. *)
          let store, resume =
            match (resume_file, store_file) with
            | Some _, Some _ ->
              die
                "--store and --resume are mutually exclusive (--resume \
                 appends to the same file)"
            | Some path, None -> (
              match St.resume ~checkpoint_every:0 ~trace ~path () with
              | Ok (r, w) -> (Some w, Some r)
              | Error e -> die "cannot resume %s: %s" path e)
            | None, Some path ->
              let source_crc =
                if Sys.file_exists spec then Ps_store.Crc32.file spec else 0
              in
              let meta =
                {
                  St.engine = "reach";
                  width = nstate;
                  vars = [||];
                  source = spec;
                  source_crc;
                }
              in
              (Some (St.create ~checkpoint_every:0 ~trace ~path meta), None)
            | None, None -> (None, None)
          in
          let r =
            try
              R.backward ~engine ~max_steps ~trace ?store ?resume circuit
                target
            with Invalid_argument msg -> die "%s" msg
          in
          (match store with
          | Some w ->
            St.finalize w ~complete:r.R.fixpoint ();
            print_store_stats w
          | None -> ());
          r)
    in
    Format.printf "engine=%s steps=%d total_states=%g fixpoint=%b time=%.3fs@."
      (R.engine_name r.R.engine) (List.length r.R.steps) r.R.total_states
      r.R.fixpoint r.R.time_s;
    List.iter
      (fun s ->
        Format.printf "  step %3d: +%g (total %g, %d cubes, %.4fs)@." s.R.index
          s.R.frontier_states s.R.total_states s.R.frontier_cubes s.R.time_s)
      r.R.steps;
    match trace_from with
    | None -> ()
    | Some bits ->
      let from = Array.init (String.length bits) (fun i -> bits.[i] = '1') in
      (match R.trace r circuit ~from with
      | None -> Format.printf "state %s cannot reach the target@." bits
      | Some inputs ->
        Format.printf "witness (%d cycles):@." (List.length inputs);
        List.iteri
          (fun t iv ->
            Format.printf "  cycle %d: %s@." t
              (String.concat ""
                 (Array.to_list (Array.map (fun b -> if b then "1" else "0") iv))))
          inputs)
  in
  Cmd.v
    (Cmd.info "reach" ~doc:"Backward-reachability fixpoint")
    Term.(
      const run $ circuit_arg $ target_arg $ engine $ max_steps $ trace_from
      $ trace_file $ store_arg $ resume_arg)

(* --- allsat -------------------------------------------------------------- *)

let allsat_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf" ~doc:"DIMACS file.")
  in
  let width =
    Arg.(
      value
      & opt (some int) None
      & info [ "w"; "width" ] ~docv:"K"
          ~doc:"Project onto the first K variables (default: all).")
  in
  let limit =
    Arg.(value & opt int 1_000_000 & info [ "limit" ] ~docv:"N" ~doc:"Cube cap.")
  in
  let use_lift =
    Arg.(
      value & flag
      & info [ "lift" ] ~doc:"Enlarge each solution into a cube (clause analysis).")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ] ~doc:"Post-process the cover (subsumption + merging).")
  in
  let run file width limit use_lift minimize timeout conflict_limit trace_file
      jobs store_file resume_file =
    let jobs = check_jobs jobs in
    let cnf, declared =
      try Ps_sat.Dimacs.parse_file_projected file with
      | Ps_sat.Dimacs.Parse_error { line; msg } ->
        die "%s: line %d: %s" file line msg
      | Sys_error msg -> die "%s" msg
    in
    let proj =
      match (width, declared) with
      | Some w, _ ->
        Ps_allsat.Project.of_vars (Array.init (min w cnf.Ps_sat.Cnf.nvars) Fun.id)
      | None, Some vars ->
        Ps_allsat.Project.of_vars
          (Array.of_list (List.filter (fun v -> v < cnf.Ps_sat.Cnf.nvars) vars))
      | None, None ->
        Ps_allsat.Project.of_vars (Array.init cnf.Ps_sat.Cnf.nvars Fun.id)
    in
    let w = Ps_allsat.Project.width proj in
    with_trace trace_file (fun trace ->
        let store, recovered =
          match (resume_file, store_file) with
          | Some _, Some _ ->
            die
              "--store and --resume are mutually exclusive (--resume appends \
               to the same file)"
          | Some path, None -> (
            match St.resume ~trace ~path () with
            | Ok (r, wtr) ->
              if r.St.meta.St.width <> w then
                die "resume: log is %d positions wide but the projection is %d"
                  r.St.meta.St.width w;
              if
                r.St.meta.St.source_crc <> 0
                && r.St.meta.St.source_crc <> Ps_store.Crc32.file file
              then
                die
                  "resume: %s does not match the log's source formula (CRC \
                   mismatch)"
                  file;
              (Some wtr, Some r)
            | Error e -> die "cannot resume %s: %s" path e)
          | None, Some path ->
            let meta =
              {
                St.engine = "allsat";
                width = w;
                vars = Array.copy proj.Ps_allsat.Project.vars;
                source = file;
                source_crc = Ps_store.Crc32.file file;
              }
            in
            (Some (St.create ~trace ~path meta), None)
          | None, None -> (None, None)
        in
        let sink = Option.map St.sink store in
        (* Resuming: everything already in the log is blocked before the
           fresh enumeration, so the run continues exactly where the
           killed one stopped. *)
        let prior = match recovered with Some r -> r.St.cubes | None -> [] in
        let solver = Ps_sat.Solver.create () in
        if not (Ps_sat.Solver.load solver cnf) then begin
          Format.printf "unsatisfiable at root@.";
          match store with
          | Some wtr ->
            St.finalize wtr ~complete:true ();
            print_store_stats wtr
          | None -> ()
        end
        else begin
          let lift =
            if use_lift then Some (Ps_allsat.Cnf_lift.make cnf proj) else None
          in
          let budget = make_budget timeout conflict_limit in
          let r =
            match jobs with
            | None ->
              Ps_allsat.Blocking.enumerate ~limit ?budget ~trace ?sink ?lift
                ~prior solver proj
            | Some jobs ->
              (* one fresh solver per guiding-path shard, confined to the
                 shard's prefix by unit clauses *)
              Ps_allsat.Parallel.run ~jobs ~limit ?budget ~trace ?sink ~width:w
                ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
                  let s = Ps_sat.Solver.create () in
                  if not (Ps_sat.Solver.load s cnf) then
                    {
                      Ps_allsat.Run.cubes = [];
                      witnesses = None;
                      graph = None;
                      stats = Ps_util.Stats.create ();
                      stopped = `Complete;
                    }
                  else begin
                    List.iter
                      (fun l -> ignore (Ps_sat.Solver.add_clause s [ l ]))
                      (Ps_allsat.Project.lits_of_cube proj prefix);
                    (* witnesses reach the log through the merge *)
                    Ps_allsat.Blocking.enumerate ?limit ?budget ~trace ?lift
                      ~keep_witnesses:(store <> None) ~prior s proj
                  end)
                ()
          in
          (match store with
          | Some wtr ->
            St.finalize wtr ~complete:(Ps_allsat.Run.complete r) ();
            print_store_stats wtr
          | None -> ());
          let cubes = prior @ r.Ps_allsat.Run.cubes in
          let cubes =
            if minimize then Ps_allsat.Cube_set.minimize cubes else cubes
          in
          Format.printf
            "%d cubes covering %g projected solutions%s (%d SAT calls)@."
            (List.length cubes)
            (Ps_allsat.Cube_set.union_count w cubes)
            (if Ps_allsat.Run.complete r then ""
             else
               Printf.sprintf " [%s]"
                 (Ps_allsat.Run.stopped_name r.Ps_allsat.Run.stopped))
            (Ps_allsat.Blocking.sat_calls r);
          List.iter (fun c -> Format.printf "%a@." Ps_allsat.Cube.pp c) cubes
        end)
  in
  Cmd.v
    (Cmd.info "allsat" ~doc:"Enumerate projected solutions of a DIMACS formula")
    Term.(
      const run $ file $ width $ limit $ use_lift $ minimize $ timeout_arg
      $ conflict_limit_arg $ trace_file_arg $ jobs_arg $ store_arg
      $ resume_arg)

(* --- verify ---------------------------------------------------------------- *)

let verify_cmd =
  let log_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG" ~doc:"Solution log written by $(b,--store).")
  in
  let cnf_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cnf" ] ~docv:"FILE"
          ~doc:
            "DIMACS formula to certify against. Default: the source path \
             recorded in the log's meta record.")
  in
  let reject fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("preimage_cli: verify: REJECTED: " ^ s);
        exit 1)
      fmt
  in
  let run log cnf_file trace_file =
    with_trace trace_file (fun trace ->
        match St.recover ~path:log with
        | Error e -> reject "%s" e
        | Ok r ->
          (match Ps_store.Verify.certifiable r with
          | Some reason -> reject "%s" reason
          | None -> ());
          let cnf_path =
            match cnf_file with
            | Some f -> f
            | None -> r.St.meta.St.source
          in
          if cnf_path = "" || not (Sys.file_exists cnf_path) then
            die "verify: formula file %S not found (point --cnf at it)"
              cnf_path;
          if
            r.St.meta.St.source_crc <> 0
            && Ps_store.Crc32.file cnf_path <> r.St.meta.St.source_crc
          then
            reject "%s does not match the log's source formula (CRC mismatch)"
              cnf_path;
          let cnf =
            try Ps_sat.Dimacs.parse_file cnf_path with
            | Ps_sat.Dimacs.Parse_error { line; msg } ->
              die "%s: line %d: %s" cnf_path line msg
            | Sys_error msg -> die "%s" msg
          in
          let report =
            try Ps_store.Verify.run ~trace ~cnf r
            with Invalid_argument msg -> die "verify: %s" msg
          in
          Format.printf
            "cubes=%d sat_calls=%d witnessed=%d propagations=%d sound=%b \
             complete=%b@."
            report.Ps_store.Verify.cubes report.Ps_store.Verify.sat_calls
            report.Ps_store.Verify.witnessed report.Ps_store.Verify.propagations
            report.Ps_store.Verify.sound (Ps_store.Verify.complete report);
          if Ps_store.Verify.ok report then
            Format.printf
              "VERIFIED: the log is a sound and complete solution cover@."
          else begin
            List.iter
              (fun c ->
                Format.eprintf "  unsound cube: %a@." Ps_allsat.Cube.pp c)
              report.Ps_store.Verify.unsound;
            Option.iter
              (fun c ->
                Format.eprintf "  missed solution: %a@." Ps_allsat.Cube.pp c;
                prerr_endline
                  "  incomplete: the formula has solutions outside the logged \
                   cover")
              report.Ps_store.Verify.missing;
            reject "certification failed"
          end)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Independently certify a solution log. Soundness: a cube logged \
          with its witness must satisfy every clause together with it (one \
          pass over the clauses, no solver); a minterm without one takes a \
          SAT call; a wider cube without one is rejected. Completeness: a \
          fresh solver that holds only the formula makes one UNSAT call per \
          region of the projected space that no cube reaches and no earlier \
          call's core closed. \
          Prints a missed solution if there is one. Exits 1 if the log is \
          damaged, incomplete, or wrong.")
    Term.(const run $ log_arg $ cnf_arg $ trace_file_arg)

(* --- atpg ------------------------------------------------------------------ *)

let atpg_cmd =
  let engine =
    Arg.(
      value & opt engine_conv E.BlockingLift
      & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"All-SAT engine for test sets.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-fault reports.")
  in
  let run spec engine verbose =
    let circuit = load_circuit spec in
    let reports = Preimage.Atpg.all ~method_:engine circuit in
    let n, detectable, vectors, avg_cover = Preimage.Atpg.summary reports in
    Format.printf
      "faults=%d detectable=%d total_vectors=%g avg_cover=%.2f coverage=%.1f%%@."
      n detectable vectors avg_cover
      (100.0 *. float_of_int detectable /. float_of_int (max n 1));
    if verbose then
      List.iter
        (fun r ->
          Format.printf "  %-12s s-a-%d %s %g vectors in %d cubes@."
            r.Preimage.Atpg.net_name
            (if r.Preimage.Atpg.fault.Ps_circuit.Faults.stuck_at then 1 else 0)
            (if r.Preimage.Atpg.detectable then "DET  " else "REDUN")
            r.Preimage.Atpg.vectors r.Preimage.Atpg.cubes)
        reports
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Complete stuck-at test sets via all-solutions SAT")
    Term.(const run $ circuit_arg $ engine $ verbose)

let () =
  let doc = "SAT all-solutions preimage computation (DATE 2004 reproduction)" in
  let info = Cmd.info "preimage_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            suite_cmd; info_cmd; preimage_cmd; reach_cmd; allsat_cmd;
            verify_cmd; atpg_cmd;
          ]))
