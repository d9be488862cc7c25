module Solver = Ps_sat.Solver
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

let enumerate ?limit ?budget ?(trace = Trace.null) ?sink ?(keep_witnesses = false)
    ?lift ?(prior = []) solver proj =
  let stats = Stats.create () in
  let width = Project.width proj in
  let cubes = ref [] in
  let witnesses = ref [] in
  let n_cubes = ref 0 in
  let sat_calls = ref 0 in
  let stopped = ref `Complete in
  let under_limit () = match limit with None -> true | Some l -> !n_cubes < l in
  (* Witnesses are read off each cube's model at its report point, and
     only for a sink or [keep_witnesses]. *)
  let capture = keep_witnesses || Option.is_some sink in
  let wvars =
    if capture then Witness.vars proj ~nvars:(Solver.nvars solver) else [||]
  in
  (* [value i]: the model's value of witness variable [i] *)
  let witness value =
    if capture then Some (Witness.init (Array.length wvars) value) else None
  in
  let emit ?witness cube =
    cubes := cube :: !cubes;
    if keep_witnesses then witnesses := Option.get witness :: !witnesses;
    Option.iter (fun s -> s.Run.on_cube ?witness cube) sink;
    incr n_cubes;
    Stats.add stats "fixed_literals" (Cube.num_fixed cube);
    if not (Trace.is_null trace) then
      Trace.emit trace
        (Trace.Cube { index = !n_cubes; fixed = Cube.num_fixed cube; width })
  in
  (* Minterm runs hand over to chronological enumeration once the
     blocking clauses, [prior]'s included, outnumber the problem clauses
     they started with. Each projection variable the root fixes (a
     shard's prefix units, say) halves that threshold while the
     classical loop finds its models at no more than one conflict each:
     a dense share of the space, which chronological enumeration drains
     cheaply. Sparse, hard shards keep the full threshold. Lifted runs
     enumerate chronologically from the start and shrink every model to
     a cube (docs/ALGORITHMS.md §13). *)
  let problem_clauses = Solver.n_clauses solver in
  let root_fixed =
    Array.to_list proj.Project.vars
    |> List.sort_uniq compare
    |> List.filter (fun v -> Solver.root_value solver v <> None)
    |> List.length
  in
  let scaled = problem_clauses asr min root_fixed 62 in
  let conflicts () = Solver.conflicts solver in
  let conflicts_on_entry = conflicts () in
  let blocked = ref 0 in
  let hand_over () =
    !blocked > problem_clauses
    || (!blocked > scaled && conflicts () - conflicts_on_entry <= !sat_calls)
  in
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
    else if Option.is_some shrink || hand_over () then begin
      incr sat_calls;
      running := false;
      match
        Solver.enumerate_projected ?budget ~trace ?shrink ~witness:wvars solver
          proj.Project.vars (fun bits mask ->
            let witness = witness (fun i -> bits.(width + i)) in
            let bits = if capture then Array.sub bits 0 width else bits in
            emit ?witness (Cube.of_masked_assignment bits mask);
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
        let witness = witness (fun i -> model.(wvars.(i))) in
        let cube = Project.cube_of_model proj model in
        emit ?witness cube;
        if not (block cube) then running := false
    end
  done;
  Stats.add stats "cubes" !n_cubes;
  Stats.add stats "sat_calls" !sat_calls;
  Stats.merge ~into:stats (Solver.stats solver);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name !stopped });
  {
    Run.cubes = List.rev !cubes;
    witnesses = (if keep_witnesses then Some (List.rev !witnesses) else None);
    graph = None;
    stats;
    stopped = !stopped;
  }

let sat_calls (r : Run.t) = Stats.get r.Run.stats "sat_calls"
