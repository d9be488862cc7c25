(** Incremental frame-to-frame backward reachability.

    The rebuild-per-frame fixpoint ({!Reach.backward}) pays, at {e every}
    frame: a target-block graft, a Tseitin encoding of the transition
    cone, a fresh solver, and — most expensively — the loss of every
    learnt clause the previous frame's enumeration derived. A session
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
    per-step state counts are identical to {!Reach.backward}'s (the
    differential suite checks this on hundreds of random circuits).
    Use [Reach.backward ~incremental:true] for the drop-in interface,
    or drive frames one at a time with {!create}/{!frame}. *)

(** Per-frame statistics, in frame order. *)
type frame = {
  index : int;              (** 1-based frame number *)
  frontier_cubes : int;     (** cubes handed to this frame's group *)
  new_cubes : int;          (** lifted state cubes found and blocked; a
                                cube may cover many states, some reached
                                by earlier frames *)
  blocking_clauses : int;   (** blocking clauses added {e this} frame —
                                equals [new_cubes]; never grows with the
                                total reached set *)
  sat_calls : int;
  conflicts : int;          (** conflicts spent inside this frame *)
  learnts_start : int;      (** learnt clauses alive when the frame began:
                                knowledge inherited from earlier frames *)
  frontier_states : float;  (** states newly added by this frame *)
  total_states : float;     (** |reached| after this frame *)
  time_s : float;
}

type result = {
  frames : frame list;
  fixpoint : bool;          (** [false] only when [max_steps] stopped it *)
  total_states : float;
  reached : Ps_bdd.Bdd.t;   (** over state variables [0 .. nstate-1] *)
  man : Ps_bdd.Bdd.man;
  layers : Ps_bdd.Bdd.t list;
      (** cumulative, [List.hd] = the target set *)
  time_s : float;
  solver_stats : Ps_util.Stats.t;
      (** final stats of the persistent solver — includes
          ["groups_live"], ["groups_retired"], ["learnts_kept"] *)
}

(** A running session. *)
type t

(** [create ?trace circuit target] encodes the transition cone, blocks
    the target cubes (the initial reached set) and posts the first
    frontier. Raises [Invalid_argument] when the circuit has no latches
    (as {!Reach.backward}).

    [store] persists the session into a durable solution log
    ({!Ps_store.Store}): the target's canonical cubes and a
    [frame = 0] checkpoint at creation, then each frame's fresh-set
    cubes and a per-frame checkpoint carrying the frame statistics.
    [resume] rebuilds a killed session from a recovered log instead:
    every recovered cube is re-blocked permanently, the reached set /
    layers / frame records are reconstructed bit-identically (at the
    set level), and the next {!frame} call runs frame [n+1]. Raises
    [Invalid_argument] when the log does not match the circuit/target
    ({!Session_store.check_resume}). *)
val create :
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  t

(** [frame t] runs one fixpoint frame: enumerate
    [Pre(frontier) \ reached], extend the reached set, retire the
    frame's group. Returns [false] when the fixpoint was already
    reached (no frame was run). *)
val frame : t -> bool

(** [fixpoint_reached t] — is the frontier empty? *)
val fixpoint_reached : t -> bool

(** [result t] packages the session's current state (callable at any
    point; [fixpoint] reflects {!fixpoint_reached}). *)
val result : t -> result

(** [solver t] is the persistent solver (for stats inspection; mutating
    it voids the session's invariants). *)
val solver : t -> Ps_sat.Solver.t

(** [run ?max_steps ?trace circuit target] drives a fresh session to the
    fixpoint (or [max_steps] frames, default 1000). With [resume],
    frames replayed from the log count toward [max_steps], so an
    interrupted-and-resumed run stops at the same total frame count as
    an uninterrupted one. *)
val run :
  ?max_steps:int ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  result
