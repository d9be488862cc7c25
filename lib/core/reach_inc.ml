module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube
module Lifting = Ps_allsat.Lifting
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module Tseitin = Ps_circuit.Tseitin
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Store = Ps_store.Store
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace

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

type found = {
  fresh : B.t;
  blocked : int option;
  sat_calls : int;
  conflicts : int;
}

type enumerator = {
  reached : Cube.t list -> unit;
  learnts : unit -> int;
  preimage : frontier:B.t -> reached:B.t -> Cube.t list -> found;
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
  nstate : int;
  man : B.man;
  enum : enumerator;
  solver : Solver.t option;  (* the session's, when it is the enumerator *)
  trace : Trace.sink;
  store : Store.writer option;
  mutable reached : B.t;
  mutable frontier : B.t;
  mutable frontier_cubes : Cube.t list;  (* canonical cubes of [frontier] *)
  mutable layers : B.t list;             (* reverse order *)
  mutable frames : frame list;           (* reverse order *)
  mutable index : int;
  t_start : float;
}

type session = {
  tr : T.t;
  solver : Solver.t;
  lift : Lifting.scratch;
  trace : Trace.sink;
}

let cube_of_path path =
  Cube.of_string
    (String.init (Array.length path) (fun i ->
         match path.(i) with Some true -> '1' | Some false -> '0' | None -> '-'))

let cubes_of_bdd f ~width =
  let acc = ref [] in
  B.iter_cubes f ~nvars:width (fun path -> acc := cube_of_path path :: !acc);
  List.rev !acc

let bdd_of_cubes man cubes =
  List.fold_left
    (fun acc c -> B.bor acc (B.cube man (Cube.to_list c)))
    (B.zero man) cubes

(* --- the session enumerator ---------------------------------------------- *)

(* One transition-relation CNF for the whole session: the cone of every
   next-state net, encoded once into a persistent solver. *)
let open_session ~trace circuit =
  let tr = T.of_netlist circuit in
  let cone = N.cone circuit (Array.to_list tr.T.next_nets) in
  let solver = Solver.create () in
  ignore (Solver.load solver (Tseitin.encode ~cone circuit));
  Solver.ensure_vars solver (N.num_nets circuit);
  { tr; solver; lift = Lifting.scratch circuit; trace }

(* A permanent blocking clause over the state variables excludes one cube
   of reached states from every later preimage enumeration. Each state is
   blocked at most once over the whole session (a model always lies
   outside the blocked cubes), so the clause-set growth is bounded by the
   number of cubes the session finds — never by (frames × reached), the
   quadratic blow-up of re-blocking per frame. *)
let block_state_lits s lits =
  ignore
    (Solver.add_clause s.solver
       (List.map (fun (pos, v) -> Lit.make s.tr.T.state_nets.(pos) (not v)) lits))

(* Post this frame's frontier constraint — "the next state lies in the
   frontier" — as a retractable clause group: a DNF-selector encoding of
   the frontier cubes over the next-state nets, all guarded by the group's
   activation literal. A single cube needs no selectors (its literals go
   in directly); [k > 1] cubes get one auxiliary selector each plus the
   one-of disjunction. *)
let post_frontier_group s frontier_cubes =
  let g = Solver.new_group s.solver in
  let lits_of_cube c =
    List.map (fun (pos, v) -> Lit.make s.tr.T.next_nets.(pos) v) (Cube.to_list c)
  in
  (match frontier_cubes with
  | [ c ] -> List.iter (fun l -> ignore (Solver.add_grouped s.solver g [ l ])) (lits_of_cube c)
  | cubes ->
    let selectors =
      List.map
        (fun c ->
          let a = Solver.new_var s.solver in
          List.iter
            (fun l -> ignore (Solver.add_grouped s.solver g [ Lit.neg a; l ]))
            (lits_of_cube c);
          Lit.pos a)
        cubes
    in
    ignore (Solver.add_grouped s.solver g selectors));
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
let lift_model s ~frontier =
  let value = Solver.model_value s.solver in
  let rec roots f acc =
    match B.topvar f with
    | None ->
      assert (B.is_one f) (* the model satisfies the frontier group *);
      List.rev acc
    | Some v ->
      let net = s.tr.T.next_nets.(v) in
      roots (if value net then B.high f else B.low f) (net :: acc)
  in
  Lifting.justify_roots s.lift ~roots:(roots frontier []) ~value;
  let lits = ref [] in
  for pos = Array.length s.tr.T.state_nets - 1 downto 0 do
    let net = s.tr.T.state_nets.(pos) in
    if Lifting.required s.lift net then lits := (pos, value net) :: !lits
  done;
  !lits

(* Blocking all-SAT over the state variables, one lifted cube per model
   (see [lift_model]), each blocked permanently: earlier frames' blocks
   already exclude the reached set, so every model is a new state of
   Pre(frontier). *)
let preimage s ~frontier ~reached frontier_cubes =
  let conflicts0 = Stats.get (Solver.stats s.solver) "conflicts" in
  let g = post_frontier_group s frontier_cubes in
  let assumptions = [ Solver.group_lit s.solver g ] in
  let man = B.man_of frontier in
  let nstate = Array.length s.tr.T.state_nets in
  let fresh = ref (B.zero man) in
  let sat_calls = ref 0 in
  let new_cubes = ref 0 in
  let free_bits = ref false in
  let exhausted = ref false in
  while not !exhausted do
    incr sat_calls;
    match Solver.solve ~assumptions ~trace:s.trace s.solver with
    | Solver.Unsat -> exhausted := true
    | Solver.Unknown -> assert false (* unbudgeted solve *)
    | Solver.Sat ->
      let lits = lift_model s ~frontier in
      if List.compare_length_with lits nstate < 0 then free_bits := true;
      incr new_cubes;
      fresh := B.bor !fresh (B.cube man lits);
      block_state_lits s lits
  done;
  Solver.retire_group s.solver g;
  (* A lifted cube may cover states reached in earlier frames; a minterm
     cube is the model's own state, which blocking keeps out of
     [reached], so the subtraction is only paid when some cube has a free
     bit ([B.bnot] walks the whole reached set). *)
  {
    fresh = (if !free_bits then B.band !fresh (B.bnot reached) else !fresh);
    blocked = Some !new_cubes;
    sat_calls = !sat_calls;
    conflicts = Stats.get (Solver.stats s.solver) "conflicts" - conflicts0;
  }

let session_enumerator s : enumerator =
  {
    reached = List.iter (fun c -> block_state_lits s (Cube.to_list c));
    learnts = (fun () -> Solver.n_learnts s.solver);
    preimage = preimage s;
  }

(* --- the durable log ---------------------------------------------------- *)

(* A frame's cubes, then its checkpoint carrying the frame record. *)
let persist store (f : frame) cubes =
  match store with
  | None -> ()
  | Some w ->
    List.iter (fun c -> ignore (Store.append w c)) cubes;
    Store.checkpoint ~kind:"frame" ~frame:f.index
      ~ints:
        [
          ("frontier_cubes", f.frontier_cubes);
          ("new_cubes", f.new_cubes);
          ("blocking_clauses", f.blocking_clauses);
          ("sat_calls", f.sat_calls);
          ("conflicts", f.conflicts);
          ("learnts_start", f.learnts_start);
        ]
      ~floats:
        [
          ("frontier_states", f.frontier_states);
          ("total_states", f.total_states);
          ("time_s", f.time_s);
        ]
      w ()

let frame_of_checkpoint (ck : Store.checkpoint) =
  let int k = Option.value (List.assoc_opt k ck.Store.ints) ~default:0 in
  let float k = Option.value (List.assoc_opt k ck.Store.floats) ~default:0.0 in
  {
    index = ck.Store.frame;
    frontier_cubes = int "frontier_cubes";
    new_cubes = int "new_cubes";
    blocking_clauses = int "blocking_clauses";
    sat_calls = int "sat_calls";
    conflicts = int "conflicts";
    learnts_start = int "learnts_start";
    frontier_states = float "frontier_states";
    total_states = float "total_states";
    time_s = float "time_s";
  }

(* The recovered cube stream segmented by "frame" checkpoint, in frame
   order. Cubes logged under other checkpoints (e.g. "resume") roll into
   the next frame; a segment's cubes precede its checkpoint. *)
let frames_of_recovered (r : Store.recovered) =
  let pending = ref [] in
  let out = ref [] in
  List.iter
    (fun ((ck : Store.checkpoint), cs) ->
      pending := !pending @ cs;
      if ck.Store.kind = "frame" then begin
        out := (ck, !pending) :: !out;
        pending := []
      end)
    r.Store.segments;
  List.rev !out

let check_resume (r : Store.recovered) ~man ~nstate ~target =
  if r.Store.meta.Store.width <> nstate then
    invalid_arg
      (Printf.sprintf
         "resume: log is over %d state bits but the circuit has %d"
         r.Store.meta.Store.width nstate);
  match frames_of_recovered r with
  | [] -> invalid_arg "resume: log has no frame checkpoint"
  | (ck0, cubes0) :: _ as frames ->
    if ck0.Store.frame <> 0 then
      invalid_arg "resume: log's first frame checkpoint is not frame 0";
    if not (B.equal (bdd_of_cubes man cubes0) target) then
      invalid_arg "resume: log was recorded for a different target set";
    frames

(* --- the loop ----------------------------------------------------------- *)

let count t f = B.count_models ~nvars:t.nstate f

let create ?enumerator ?(trace = Trace.null) ?store ?resume circuit target =
  let t_start = Unix.gettimeofday () in
  let nstate = List.length (N.latches circuit) in
  if nstate = 0 then invalid_arg "reachability: circuit has no latches";
  let solver, enum =
    match enumerator with
    | Some e -> (None, e)
    | None ->
      let s = open_session ~trace circuit in
      (Some s.solver, session_enumerator s)
  in
  let man = B.new_man ~nvars:nstate in
  let target = bdd_of_cubes man target in
  let t =
    {
      nstate;
      man;
      enum;
      solver;
      trace;
      store;
      reached = target;
      frontier = target;
      frontier_cubes = cubes_of_bdd target ~width:nstate;
      layers = [ target ];
      frames = [];
      index = 0;
      t_start;
    }
  in
  (match resume with
  | None ->
    enum.reached t.frontier_cubes;
    let n = count t target in
    persist store
      {
        index = 0;
        frontier_cubes = List.length t.frontier_cubes;
        new_cubes = 0;
        blocking_clauses = 0;
        sat_calls = 0;
        conflicts = 0;
        learnts_start = 0;
        frontier_states = n;
        total_states = n;
        time_s = 0.0;
      }
      t.frontier_cubes
  | Some r ->
    (* Replay the log: rebuild reached set, layers and frame records from
       the per-frame canonical cubes and checkpoints, then continue at the
       frame after the last checkpoint. *)
    let frames = check_resume r ~man ~nstate ~target in
    enum.reached (List.concat_map snd frames);
    List.iter
      (fun ((ck : Store.checkpoint), cubes) ->
        if ck.Store.frame > 0 then begin
          let fresh = bdd_of_cubes man cubes in
          t.reached <- B.bor t.reached fresh;
          t.layers <- t.reached :: t.layers;
          t.frontier <- fresh;
          t.index <- ck.Store.frame;
          t.frames <- frame_of_checkpoint ck :: t.frames
        end)
      frames;
    t.frontier_cubes <- cubes_of_bdd t.frontier ~width:nstate);
  t

let fixpoint_reached t = B.is_zero t.frontier

let frame t =
  if fixpoint_reached t then false
  else begin
    t.index <- t.index + 1;
    let t0 = Unix.gettimeofday () in
    let learnts_start = t.enum.learnts () in
    let frontier_cubes = List.length t.frontier_cubes in
    Trace.emit t.trace
      (Trace.Frame_start
         { index = t.index; frontier_cubes; learnts = learnts_start });
    let found =
      t.enum.preimage ~frontier:t.frontier ~reached:t.reached t.frontier_cubes
    in
    t.reached <- B.bor t.reached found.fresh;
    t.layers <- t.reached :: t.layers;
    t.frontier <- found.fresh;
    (* The fresh set's canonical cubes are what the log records and what
       the next frame hands its enumerator: one walk per frame. *)
    t.frontier_cubes <- cubes_of_bdd found.fresh ~width:t.nstate;
    let new_cubes =
      Option.value found.blocked ~default:(List.length t.frontier_cubes)
    in
    let f =
      {
        index = t.index;
        frontier_cubes;
        new_cubes;
        blocking_clauses = Option.value found.blocked ~default:0;
        sat_calls = found.sat_calls;
        conflicts = found.conflicts;
        learnts_start;
        frontier_states = count t found.fresh;
        total_states = count t t.reached;
        time_s = Unix.gettimeofday () -. t0;
      }
    in
    t.frames <- f :: t.frames;
    (* Frame boundary = durability boundary: a killed run resumes here. *)
    persist t.store f t.frontier_cubes;
    Trace.emit t.trace
      (Trace.Frame_done
         {
           index = t.index;
           new_cubes;
           blocked = f.blocking_clauses;
           sat_calls = f.sat_calls;
           conflicts = f.conflicts;
         });
    true
  end

let result t =
  {
    frames = List.rev t.frames;
    fixpoint = fixpoint_reached t;
    total_states = count t t.reached;
    reached = t.reached;
    man = t.man;
    layers = List.rev t.layers;
    time_s = Unix.gettimeofday () -. t.t_start;
    solver_stats =
      (match t.solver with Some s -> Solver.stats s | None -> Stats.create ());
  }

let solver (t : t) =
  match t.solver with
  | Some s -> s
  | None -> invalid_arg "Reach_inc.solver: not a session"

let run ?enumerator ?(max_steps = 1000) ?trace ?store ?resume circuit target =
  let t = create ?enumerator ?trace ?store ?resume circuit target in
  (* [t.index] counts frames over the whole run, including frames
     replayed from a resumed log — so max_steps means the same thing
     for an interrupted-and-resumed run as for an uninterrupted one. *)
  while (not (fixpoint_reached t)) && t.index < max_steps do
    ignore (frame t)
  done;
  result t
