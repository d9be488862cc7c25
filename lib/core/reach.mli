(** Backward reachability: iterated preimage to a fixpoint.

    [R0 = T], [R(k+1) = R(k) ∪ Pre(frontier)] with [frontier = the states
    added in step k]; terminates when no new states appear (guaranteed —
    the state space is finite). Every engine runs the same frame loop
    ({!Reach_inc}): the reached set is a BDD over the state variables
    whatever computes each frame's preimage, so the SAT engines, the
    native BDD engine and the incremental session are directly
    comparable. *)

(** The per-step preimage method. The SAT engines [E_sds],
    [E_sds_dynamic] and [E_blocking_lift] rebuild the transition CNF and
    a fresh solver at every frame. [E_bdd] builds one
    {!Bdd_engine.context} before the first frame and takes every frame's
    preimage in it. [E_incremental] drives a persistent {!Reach_inc}
    session instead (one CNF, one solver, retractable per-frame
    constraint groups, learnt clauses surviving frame to frame). Every
    engine's reached sets, layers and state counts are identical. *)
type engine = E_sds | E_sds_dynamic | E_blocking_lift | E_bdd | E_incremental

val engine_name : engine -> string

(** The per-frame record, shared with {!Reach_inc.frame}. On every
    engine but [E_incremental], [learnts_start] and [blocking_clauses]
    are 0 and [new_cubes] is the canonical cube count of the frame's
    newly reached set. *)
type step = Reach_inc.frame = {
  index : int;              (** 1-based preimage step *)
  frontier_cubes : int;     (** cubes handed to this step's preimage *)
  new_cubes : int;
  blocking_clauses : int;
  sat_calls : int;
  conflicts : int;
  learnts_start : int;
  frontier_states : float;  (** states newly added by this step *)
  total_states : float;     (** |R| after this step *)
  time_s : float;
}

type result = {
  engine : engine;
  steps : step list;        (** in order; empty when [T] is already closed *)
  fixpoint : bool;          (** [false] only when [max_steps] stopped it *)
  total_states : float;
  reached : Ps_bdd.Bdd.t;   (** over state variables [0 .. nstate-1] *)
  man : Ps_bdd.Bdd.man;
  layers : Ps_bdd.Bdd.t list;
      (** [layers] element [i] = states within backward distance [i]
          ([List.hd layers] is the target set itself) *)
  time_s : float;
}

(** [backward ?engine ?max_steps ?trace circuit target] runs the
    fixpoint. Default engine [E_sds], default [max_steps] 1000. Raises
    [Invalid_argument] when the circuit has no latches.

    [trace] receives a {!Ps_util.Trace.Frame_start} /
    {!Ps_util.Trace.Frame_done} pair per frame (every engine but
    [E_incremental] reports [learnts = 0] and [blocked = 0], since it
    keeps no solver across frames), plus each frame's engine events
    (phases, [memo_hit], [solve], [cube], [stopped]) under [E_sds],
    [E_sds_dynamic] and [E_blocking_lift], and the session's solver
    events under [E_incremental].

    [store] persists the fixpoint into a durable solution log, one
    ["frame"] checkpoint per frame; [resume] replays a recovered log
    and continues from the frame after its last checkpoint — see
    {!Reach_inc.create}. A log resumes under any engine, whichever
    wrote it. Replayed frames count toward [max_steps]. Raises
    [Invalid_argument] when the log does not match the circuit/target. *)
val backward :
  ?engine:engine ->
  ?max_steps:int ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  result

(** [mem r state_bits] — is the state in the reached set? *)
val mem : result -> bool array -> bool

(** [trace r circuit ~from] extracts a witness: the input vectors (one
    per cycle, in {!Ps_circuit.Netlist.inputs} order) driving the
    circuit from [from] into the target set, following the distance
    layers strictly inward — so the trace has minimal length. [None]
    when [from] is not in the reached set. The extraction makes one SAT
    call per step. *)
val trace :
  result -> Ps_circuit.Netlist.t -> from:bool array -> bool array list option
