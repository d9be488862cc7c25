module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube
module Lifting = Ps_allsat.Lifting
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module Tseitin = Ps_circuit.Tseitin
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace
module Ss = Session_store

type frame = {
  index : int;
  frontier_cubes : int;
  new_cubes : int;
  blocking_clauses : int;
  sat_calls : int;
  conflicts : int;
  learnts_start : int;
  frontier_states : float;
  total_states : float;
  time_s : float;
}

type result = {
  frames : frame list;
  fixpoint : bool;
  total_states : float;
  reached : B.t;
  man : B.man;
  layers : B.t list;
  time_s : float;
  solver_stats : Stats.t;
}

type t = {
  circuit : N.t;
  tr : T.t;
  nstate : int;
  solver : Solver.t;
  lift : Lifting.scratch;
  man : B.man;
  mutable reached : B.t;
  mutable frontier : B.t;
  mutable layers : B.t list;   (* reverse order *)
  mutable frames : frame list; (* reverse order *)
  mutable index : int;
  trace : Trace.sink;
  store : Ps_store.Store.writer option;
  t_start : float;
}

let cube_of_path path =
  Cube.of_string
    (String.init (Array.length path) (fun i ->
         match path.(i) with Some true -> '1' | Some false -> '0' | None -> '-'))

let cubes_of_bdd f ~width =
  let acc = ref [] in
  B.iter_cubes f ~nvars:width (fun path -> acc := cube_of_path path :: !acc);
  List.rev !acc

let target_bdd man cubes =
  List.fold_left
    (fun acc c -> B.bor acc (B.cube man (Cube.to_list c)))
    (B.zero man) cubes

(* A permanent blocking clause over the state variables excludes one cube
   of reached states from every later preimage enumeration. Each state is
   blocked at most once over the whole session (a model always lies
   outside the blocked cubes), so the clause-set growth is bounded by the
   number of cubes the session finds — never by (frames × reached), the
   quadratic blow-up of re-blocking per frame. *)
let block_state_lits t lits =
  ignore
    (Solver.add_clause t.solver
       (List.map (fun (pos, v) -> Lit.make t.tr.T.state_nets.(pos) (not v)) lits))

let block_state_cube t cube = block_state_lits t (Cube.to_list cube)

let create ?(trace = Trace.null) ?store ?resume circuit target =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  if nstate = 0 then invalid_arg "Reach_inc.create: circuit has no latches";
  (* One transition-relation CNF for the whole session: the cone of every
     next-state net, encoded once into a persistent solver. *)
  let cone = N.cone circuit (Array.to_list tr.T.next_nets) in
  let solver = Solver.create () in
  ignore (Solver.load solver (Tseitin.encode ~cone circuit));
  Solver.ensure_vars solver (N.num_nets circuit);
  let man = B.new_man ~nvars:nstate in
  let reached = target_bdd man target in
  let t =
    {
      circuit;
      tr;
      nstate;
      solver;
      lift = Lifting.scratch circuit;
      man;
      reached;
      frontier = reached;
      layers = [ reached ];
      frames = [];
      index = 0;
      trace;
      store;
      t_start = Unix.gettimeofday ();
    }
  in
  (match resume with
  | None ->
    (* The target set is reached from the start: block its cubes now,
       and persist them as frame 0 of the session log. *)
    let target_cubes = cubes_of_bdd reached ~width:nstate in
    List.iter (block_state_cube t) target_cubes;
    Ss.persist_frame store ~frame:0 ~cubes:target_cubes
      ~ints:[ ("frontier_cubes", List.length target_cubes) ]
      ~floats:
        [
          ("frontier_states", B.count_models ~nvars:nstate reached);
          ("total_states", B.count_models ~nvars:nstate reached);
          ("time_s", 0.0);
        ]
  | Some r ->
    (* Resuming a killed session: rebuild the reached set, layers and
       frame records from the log's frame checkpoints, block *every*
       recovered cube permanently, and pick up at the next frame. *)
    let frames =
      Ss.check_resume r ~man ~nstate ~target:reached
    in
    List.iter
      (fun (f : Ss.rframe) ->
        List.iter (block_state_cube t) f.Ss.cubes;
        if f.Ss.ck.Ps_store.Store.frame > 0 then begin
          let fresh = Ss.bdd_of_cubes man f.Ss.cubes in
          t.reached <- B.bor t.reached fresh;
          t.layers <- t.reached :: t.layers;
          t.frontier <- fresh;
          t.index <- f.Ss.ck.Ps_store.Store.frame;
          let ck = f.Ss.ck in
          t.frames <-
            {
              index = ck.Ps_store.Store.frame;
              frontier_cubes = Ss.int_stat ck "frontier_cubes";
              new_cubes = Ss.int_stat ck "new_cubes";
              blocking_clauses = Ss.int_stat ck "blocking_clauses";
              sat_calls = Ss.int_stat ck "sat_calls";
              conflicts = Ss.int_stat ck "conflicts";
              learnts_start = Ss.int_stat ck "learnts_start";
              frontier_states = Ss.float_stat ck "frontier_states";
              total_states = Ss.float_stat ck "total_states";
              time_s = Ss.float_stat ck "time_s";
            }
            :: t.frames
        end)
      frames);
  t

let fixpoint_reached t = B.is_zero t.frontier

let solver t = t.solver

(* Post this frame's frontier constraint — "the next state lies in the
   frontier" — as a retractable clause group: a DNF-selector encoding of
   the frontier cubes over the next-state nets, all guarded by the group's
   activation literal. A single cube needs no selectors (its literals go
   in directly); [k > 1] cubes get one auxiliary selector each plus the
   one-of disjunction. *)
let post_frontier_group t frontier_cubes =
  let g = Solver.new_group t.solver in
  let lits_of_cube c =
    List.map (fun (pos, v) -> Lit.make t.tr.T.next_nets.(pos) v) (Cube.to_list c)
  in
  (match frontier_cubes with
  | [ c ] -> List.iter (fun l -> ignore (Solver.add_grouped t.solver g [ l ])) (lits_of_cube c)
  | cubes ->
    let selectors =
      List.map
        (fun c ->
          let a = Solver.new_var t.solver in
          List.iter
            (fun l -> ignore (Solver.add_grouped t.solver g [ Lit.neg a; l ]))
            (lits_of_cube c);
          Lit.pos a)
        cubes
    in
    ignore (Solver.add_grouped t.solver g selectors));
  g

(* The state cube of the current model, lifted by circuit justification.
   The model's next state lies in exactly one frontier cube — the frontier
   BDD's paths are disjoint, and that cube is the path the next state
   follows — and the next-state nets that cube fixes are the roots.
   Inputs stay at their model values (sound for ∃x): every state that
   agrees with the model on the required state bits steps, under those
   inputs, into the same frontier cube. So the cube lies inside
   Pre(frontier), which lies inside the next reached set, and blocking it
   permanently is sound. *)
let lift_model t =
  let value = Solver.model_value t.solver in
  let rec roots f acc =
    match B.topvar f with
    | None ->
      assert (B.is_one f) (* the model satisfies the frontier group *);
      List.rev acc
    | Some v ->
      let net = t.tr.T.next_nets.(v) in
      roots (if value net then B.high f else B.low f) (net :: acc)
  in
  Lifting.justify_roots t.lift ~roots:(roots t.frontier []) ~value;
  let lits = ref [] in
  for pos = t.nstate - 1 downto 0 do
    let net = t.tr.T.state_nets.(pos) in
    if Lifting.required t.lift net then lits := (pos, value net) :: !lits
  done;
  !lits

let frame t =
  if fixpoint_reached t then false
  else begin
    t.index <- t.index + 1;
    let t0 = Unix.gettimeofday () in
    let frontier_cubes = cubes_of_bdd t.frontier ~width:t.nstate in
    let learnts_start = Solver.n_learnts t.solver in
    let conflicts0 = Stats.get (Solver.stats t.solver) "conflicts" in
    Trace.emit t.trace
      (Trace.Frame_start
         {
           index = t.index;
           frontier_cubes = List.length frontier_cubes;
           learnts = learnts_start;
         });
    let g = post_frontier_group t frontier_cubes in
    let assumptions = [ Solver.group_lit t.solver g ] in
    (* Blocking all-SAT over the state variables, one lifted cube per
       model (see [lift_model]), each blocked permanently: earlier
       frames' blocks already exclude the reached set, so every model is
       a new state of Pre(frontier). *)
    let fresh = ref (B.zero t.man) in
    let sat_calls = ref 0 in
    let new_cubes = ref 0 in
    let free_bits = ref false in
    let exhausted = ref false in
    while not !exhausted do
      incr sat_calls;
      match Solver.solve ~assumptions ~trace:t.trace t.solver with
      | Solver.Unsat -> exhausted := true
      | Solver.Unknown -> assert false (* unbudgeted solve *)
      | Solver.Sat ->
        let lits = lift_model t in
        if List.compare_length_with lits t.nstate < 0 then free_bits := true;
        incr new_cubes;
        fresh := B.bor !fresh (B.cube t.man lits);
        block_state_lits t lits
    done;
    Solver.retire_group t.solver g;
    let conflicts =
      Stats.get (Solver.stats t.solver) "conflicts" - conflicts0
    in
    (* A lifted cube may cover states reached in earlier frames; a
       minterm cube is the model's own state, which blocking keeps out of
       [reached], so the subtraction is only paid when some cube has a
       free bit. *)
    let fresh =
      if !free_bits then B.band !fresh (B.bnot t.reached) else !fresh
    in
    t.reached <- B.bor t.reached fresh;
    t.layers <- t.reached :: t.layers;
    t.frontier <- fresh;
    let count f = B.count_models ~nvars:t.nstate f in
    let frame_rec =
      {
        index = t.index;
        frontier_cubes = List.length frontier_cubes;
        new_cubes = !new_cubes;
        blocking_clauses = !new_cubes;
        sat_calls = !sat_calls;
        conflicts;
        learnts_start;
        frontier_states = count fresh;
        total_states = count t.reached;
        time_s = Unix.gettimeofday () -. t0;
      }
    in
    t.frames <- frame_rec :: t.frames;
    (* Frame boundary = durability boundary: the fresh set's canonical
       cubes followed by the frame checkpoint, so a killed session
       resumes exactly here. *)
    Ss.persist_frame t.store ~frame:t.index
      ~cubes:(cubes_of_bdd fresh ~width:t.nstate)
      ~ints:
        [
          ("frontier_cubes", frame_rec.frontier_cubes);
          ("new_cubes", frame_rec.new_cubes);
          ("blocking_clauses", frame_rec.blocking_clauses);
          ("sat_calls", frame_rec.sat_calls);
          ("conflicts", frame_rec.conflicts);
          ("learnts_start", frame_rec.learnts_start);
        ]
      ~floats:
        [
          ("frontier_states", frame_rec.frontier_states);
          ("total_states", frame_rec.total_states);
          ("time_s", frame_rec.time_s);
        ];
    Trace.emit t.trace
      (Trace.Frame_done
         {
           index = t.index;
           new_cubes = !new_cubes;
           blocked = !new_cubes;
           sat_calls = !sat_calls;
           conflicts;
         });
    true
  end

let result t =
  {
    frames = List.rev t.frames;
    fixpoint = fixpoint_reached t;
    total_states = B.count_models ~nvars:t.nstate t.reached;
    reached = t.reached;
    man = t.man;
    layers = List.rev t.layers;
    time_s = Unix.gettimeofday () -. t.t_start;
    solver_stats = Solver.stats t.solver;
  }

let run ?(max_steps = 1000) ?trace ?store ?resume circuit target =
  let t = create ?trace ?store ?resume circuit target in
  (* [t.index] counts frames over the whole session, including frames
     replayed from a resumed log — so max_steps means the same thing
     for an interrupted-and-resumed run as for an uninterrupted one. *)
  while (not (fixpoint_reached t)) && t.index < max_steps do
    ignore (frame t)
  done;
  result t
