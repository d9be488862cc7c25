module Solver = Ps_sat.Solver
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type result = Run.t

let enumerate ?limit ?budget ?(trace = Trace.null) ?sink ?lift solver proj =
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
     blocking clauses outnumber the problem clauses they started with. *)
  let problem_clauses = Solver.n_clauses solver in
  let blocked = ref 0 in
  let running = ref true in
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
    else if Option.is_none lift && !blocked > problem_clauses then begin
      incr sat_calls;
      running := false;
      match
        Solver.enumerate_projected ?budget ~trace solver proj.Project.vars
          (fun bits ->
            emit (Cube.of_assignment bits);
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
        let model = Solver.model solver in
        let full = Project.cube_of_model proj model in
        let cube =
          match lift with
          | None -> full
          | Some lift ->
            let mask = lift model in
            if Array.length mask <> Project.width proj then
              invalid_arg "Blocking.enumerate: lift mask has wrong width";
            let bits = Array.map (fun v -> model.(v)) proj.Project.vars in
            Cube.of_masked_assignment bits mask
        in
        emit cube;
        let clause = Project.blocking_clause proj cube in
        incr blocked;
        if clause = [] then
          (* The whole projected space is one cube: nothing left. *)
          running := false
        else if not (Solver.add_clause solver clause) then running := false
    end
  done;
  Stats.add stats "cubes" !n_cubes;
  Stats.add stats "sat_calls" !sat_calls;
  Stats.merge ~into:stats (Solver.stats solver);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name !stopped });
  { Run.cubes = List.rev !cubes; graph = None; stats; stopped = !stopped }

let sat_calls (r : Run.t) = Stats.get r.Run.stats "sat_calls"

let total_minterms (r : Run.t) =
  List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 r.Run.cubes

let to_graph man (r : Run.t) =
  List.fold_left
    (fun acc c -> Solution_graph.union acc (Solution_graph.of_cube man c))
    (Solution_graph.zero man) r.Run.cubes
