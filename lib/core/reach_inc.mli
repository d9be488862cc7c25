(** The backward-reachability frame loop, and its default enumerator:
    the incremental session.

    [R0 = T], [R(k+1) = R(k) ∪ Pre(frontier)] with [frontier = the
    states added in step k]; the fixpoint is reached when a frame adds
    nothing. One loop serves every engine. It owns the reached set, the
    frontier, the distance layers (BDDs over the state variables
    [0 .. nstate-1]), the frame records, the [Frame_start] /
    [Frame_done] trace events and the durable log. Each frame's
    [Pre(frontier) \ reached] comes from an {!enumerator}: by default
    the session below; {!Reach.backward} passes its own for its other
    engines (a rebuild-per-frame one for each SAT engine, one holding a
    {!Bdd_engine.context} for the BDD engine).

    {b The session.} A rebuild-per-frame engine pays, at {e every}
    frame: a target-block graft, a Tseitin encoding of the transition
    cone, a fresh solver, and — most expensively — the loss of every
    learnt clause the previous frame's enumeration derived. The session
    removes all four costs:

    - the transition-relation CNF (the cone of {e all} next-state nets)
      is encoded {e once} at {!create} into one persistent
      {!Ps_sat.Solver};
    - each frame's frontier constraint ("the next state lies in the
      current frontier") lives in a retractable {e clause group}
      ({!Ps_sat.Solver.new_group}): a DNF-selector encoding guarded by a
      fresh activation literal, assumed during the frame's solve calls
      and permanently disabled — and arena-reclaimed — when the frame
      retires;
    - states already reached are excluded by {e permanent} blocking
      clauses over the state variables, added only for the cubes a
      frame discovers (earlier frames' blocks persist, so no frame ever
      re-blocks the accumulated reached set);
    - learnt clauses survive every frame boundary (the
      ["learnts_kept"] solver statistic counts them at each group
      retirement).

    The per-frame enumeration is blocking all-SAT over the state
    variables in which every model is lifted into a state {e cube} by
    circuit justification ({!Ps_allsat.Lifting.justify_roots}) of the
    next-state nets fixed by the frontier cube the model's next state
    lies in, inputs held at their model values. The cube lies inside
    [Pre(frontier)], so blocking it permanently is sound, and on wide
    frontiers one cube covers many states. The reached set, layers and
    per-step state counts are identical to the rebuild engines' (the
    differential suite checks this on hundreds of random circuits).

    {b The log.} A persisted fixpoint is a sequence of ["frame"]
    checkpoints ({!Ps_store.Store}): the cubes logged before the
    [frame = 0] checkpoint are the canonical cubes of the target set;
    the cubes between the [frame = n-1] and [frame = n] checkpoints are
    the canonical cubes of frame [n]'s fresh set; each checkpoint
    carries the frame record's counts under the field names of
    {!frame}, the same for every enumerator (missing keys read as 0).
    Canonical means [Bdd.iter_cubes] order of the set's BDD, so a
    resumed run rebuilds the reached set, layers and frame records
    bit-identically, whichever enumerator wrote the log. *)

(** Per-frame record, the same for every enumerator. *)
type frame = {
  index : int;              (** 1-based frame number *)
  frontier_cubes : int;     (** cubes handed to this frame's preimage *)
  new_cubes : int;          (** cubes the frame found: the session's lifted
                                state cubes (a cube may cover states
                                reached earlier), else the canonical cubes
                                of the fresh set *)
  blocking_clauses : int;   (** permanent blocking clauses added {e this}
                                frame: [new_cubes] for the session (never
                                grows with the total reached set), 0 for a
                                rebuild enumerator *)
  sat_calls : int;
  conflicts : int;          (** conflicts spent inside this frame *)
  learnts_start : int;      (** learnt clauses alive when the frame began:
                                knowledge inherited from earlier frames
                                (0 for a rebuild enumerator) *)
  frontier_states : float;  (** states newly added by this frame *)
  total_states : float;     (** |reached| after this frame *)
  time_s : float;
}

type result = {
  frames : frame list;      (** in order; empty when [T] is already closed *)
  fixpoint : bool;          (** [false] only when [max_steps] stopped it *)
  total_states : float;
  reached : Ps_bdd.Bdd.t;   (** over state variables [0 .. nstate-1] *)
  man : Ps_bdd.Bdd.man;
  layers : Ps_bdd.Bdd.t list;
      (** cumulative, [List.hd] = the target set *)
  time_s : float;
  solver_stats : Ps_util.Stats.t;
      (** final stats of the session's solver — includes
          ["groups_live"], ["groups_retired"], ["learnts_kept"]; empty
          under another enumerator *)
}

(** What an enumerator reports for one frame. *)
type found = {
  fresh : Ps_bdd.Bdd.t;     (** [Pre(frontier) \ reached] *)
  blocked : int option;
      (** [Some n]: it found [n] cubes and blocked each permanently;
          [None]: it blocks nothing across frames, and the frame reports
          the fresh set's canonical cube count instead *)
  sat_calls : int;
  conflicts : int;
}

(** A per-frame preimage method. [reached] is told, once and before the
    first frame, the cubes already reached: the target's canonical
    cubes, or every cube of a resumed log in log order. [learnts] is
    read at the start of each frame. [preimage ~frontier ~reached cubes]
    runs one frame; [cubes] are [frontier]'s canonical cubes. *)
type enumerator = {
  reached : Ps_allsat.Cube.t list -> unit;
  learnts : unit -> int;
  preimage :
    frontier:Ps_bdd.Bdd.t -> reached:Ps_bdd.Bdd.t -> Ps_allsat.Cube.t list -> found;
}

(** A running fixpoint. *)
type t

(** [create ?enumerator ?trace circuit target] starts the fixpoint from
    [target]. Without [enumerator] it opens a session: encodes the
    transition cone and blocks the target cubes (the initial reached
    set); [trace] also receives the session's solver events. Raises
    [Invalid_argument] when the circuit has no latches.

    [store] receives the target's canonical cubes and the [frame = 0]
    checkpoint now, then one frame per {!frame} call. [resume] instead
    replays a recovered log — reached set, layers and frame records as
    logged, every recovered cube told to the enumerator — and the next
    {!frame} call runs frame [n+1]. Raises [Invalid_argument] when the
    log does not match the circuit/target (a different width, no
    frame-0 checkpoint, or another target set). *)
val create :
  ?enumerator:enumerator ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  t

(** [frame t] runs one fixpoint frame: enumerate
    [Pre(frontier) \ reached], extend the reached set, keep, log and
    trace the frame record. Returns [false] when the fixpoint was
    already reached (no frame was run). *)
val frame : t -> bool

(** [fixpoint_reached t] — is the frontier empty? *)
val fixpoint_reached : t -> bool

(** [result t] packages the current state (callable at any point;
    [fixpoint] reflects {!fixpoint_reached}). *)
val result : t -> result

(** [solver t] is the session's persistent solver (for stats
    inspection; mutating it voids the session's invariants). Raises
    [Invalid_argument] when [t] runs another enumerator. *)
val solver : t -> Ps_sat.Solver.t

(** [run ?enumerator ?max_steps ?trace circuit target] drives a fresh
    fixpoint (see {!create}) to the fixpoint or [max_steps] frames
    (default 1000). With [resume], frames replayed from the log count
    toward [max_steps], so an interrupted-and-resumed run stops at the
    same total frame count as an uninterrupted one. *)
val run :
  ?enumerator:enumerator ->
  ?max_steps:int ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  result
