module Solver = Ps_sat.Solver
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

let enumerate ?limit ?budget ?(trace = Trace.null) ?sink ?lift ?(prior = [])
    solver proj =
  let stats = Stats.create () in
  let width = Project.width proj in
  let cubes = ref [] in
  let n_cubes = ref 0 in
  let sat_calls = ref 0 in
  let stopped = ref `Complete in
  let under_limit () = match limit with None -> true | Some l -> !n_cubes < l in
  let emit cube =
    cubes := cube :: !cubes;
    Run.emit_cube sink cube;
    incr n_cubes;
    Stats.add stats "fixed_literals" (Cube.num_fixed cube);
    if not (Trace.is_null trace) then
      Trace.emit trace
        (Trace.Cube { index = !n_cubes; fixed = Cube.num_fixed cube; width })
  in
  (* Minterm runs hand over to chronological enumeration once the
     blocking clauses, [prior]'s included, outnumber the problem clauses
     they started with. Lifted runs start there and shrink every model
     to a cube (docs/ALGORITHMS.md §13). *)
  let problem_clauses = Solver.n_clauses solver in
  let blocked = ref 0 in
  (* [false] once nothing is left to enumerate *)
  let block cube =
    incr blocked;
    match Project.blocking_clause proj cube with
    | [] -> false (* the whole projected space is one cube *)
    | clause -> Solver.add_clause solver clause
  in
  let shrink =
    Option.map
      (fun lift model ->
        let mask = lift model in
        if Array.length mask <> width then
          invalid_arg "Blocking.enumerate: lift mask has wrong width";
        mask)
      lift
  in
  let running = ref (List.for_all block prior) in
  while !running do
    if not (under_limit ()) then begin
      stopped := `CubeLimit;
      running := false
    end
    else if (match budget with Some b -> Budget.check b <> None | None -> false)
    then begin
      stopped := Run.stopped_of_budget budget ~default:`Cancelled;
      running := false
    end
    else if Option.is_some shrink || !blocked > problem_clauses then begin
      incr sat_calls;
      running := false;
      match
        Solver.enumerate_projected ?budget ~trace ?shrink solver
          proj.Project.vars (fun bits mask ->
            emit (Cube.of_masked_assignment bits mask);
            under_limit ())
      with
      | Solver.Unsat -> ()
      | Solver.Sat -> stopped := `CubeLimit
      | Solver.Unknown ->
        stopped := Run.stopped_of_budget budget ~default:`Cancelled
    end
    else begin
      incr sat_calls;
      match Solver.solve ?budget ~trace solver with
      | Solver.Unsat -> running := false
      | Solver.Unknown ->
        stopped := Run.stopped_of_budget budget ~default:`Cancelled;
        running := false
      | Solver.Sat ->
        let cube = Project.cube_of_model proj (Solver.model solver) in
        emit cube;
        if not (block cube) then running := false
    end
  done;
  Stats.add stats "cubes" !n_cubes;
  Stats.add stats "sat_calls" !sat_calls;
  Stats.merge ~into:stats (Solver.stats solver);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name !stopped });
  { Run.cubes = List.rev !cubes; graph = None; stats; stopped = !stopped }

let sat_calls (r : Run.t) = Stats.get r.Run.stats "sat_calls"
