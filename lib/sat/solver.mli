(** CDCL SAT solver.

    A conflict-driven clause-learning solver in the post-GRASP/Chaff
    architecture: two-watched-literal propagation, first-UIP conflict
    analysis with clause minimization, VSIDS variable activities, phase
    saving, Luby restarts, and activity-based learnt-clause deletion.

    The solver is {e incremental}: clauses may be added between [solve]
    calls (each [add_clause] first backtracks to decision level 0), and
    [solve] accepts assumptions — literals treated as pseudo-decisions
    below all real decisions — which is how the all-solutions engines
    probe satisfiability of partial assignments while keeping every
    learnt clause.

    Clause storage is a flat {!Arena}: all literals live in one
    contiguous int array, a clause is an integer offset, and watcher
    lists are flat vectors of (clause, blocker-literal) pairs. Learnt-DB
    reduction only marks clauses dead; when more than 20% of the arena
    is dead, a copying collection compacts it and relocates every
    watcher and reason reference. *)

type t

(** [Unknown] is only returned by budgeted [solve] calls: the resource
    budget ran out (deadline, conflict limit, or cancellation) before
    the question was decided. The solver is left at decision level 0
    with all learnt clauses intact, so a later call — with a fresh
    budget — resumes from the accumulated knowledge. *)
type result = Sat | Unsat | Unknown

val create : unit -> t

(** [new_var t] allocates a fresh variable and returns it. *)
val new_var : t -> Lit.var

(** [nvars t] is the number of allocated variables. *)
val nvars : t -> int

(** [ensure_vars t n] allocates variables until [nvars t >= n]. *)
val ensure_vars : t -> int -> unit

(** [add_clause t lits] adds a clause, allocating the variables it
    mentions past [nvars t]. The solver backtracks to level 0 first;
    tautologies and root-satisfied clauses are dropped, duplicate and
    root-level-false literals removed. Returns [false] iff the clause
    makes the formula trivially unsatisfiable at the root (the solver is
    then permanently unsat). *)
val add_clause : t -> Lit.t list -> bool

(** [load t cnf] allocates [cnf]'s variables and adds all its clauses,
    oldest first. It leaves the solver exactly as {!ensure_vars} to
    [cnf.nvars] followed by one {!add_clause} per clause would: every
    clause goes through the same normaliser, which sorts, dedupes and
    simplifies the literals in place in a reused buffer. Unlike that
    sequence, it grows the per-variable arrays once, to [cnf.nvars], and
    the clause arena once, to the formula's word count. Returns [false]
    iff the formula is unsatisfiable at the root. *)
val load : t -> Cnf.t -> bool

(** {2 Retractable clause groups}

    A group is a set of clauses guarded by one fresh {e activation
    variable} [g]: every clause of the group is stored as [¬g ∨ clause],
    so the group is inert until a [solve] call assumes {!group_lit}
    (making [g] true) — and can be {e retired} wholesale by fixing [g]
    false at the root. Retirement detaches and frees the group's
    clauses (they are root-satisfied forever) and lets the arena's
    copying collector reclaim the words, while every learnt clause
    derived meanwhile survives — learnts never resolve on clauses, only
    on literals, and any learnt that depends on the group contains [¬g]
    and is harmlessly satisfied after retirement.

    This is the machinery behind incremental fixpoints
    ({!Ps_core.Reach_inc}[*]): per-frame constraints live in a group
    assumed during the frame and retired when the frame ends, so the
    solver — and its learnt knowledge — persists across frames. *)

type group

(** [new_group t] allocates a fresh activation variable and an empty
    group around it. *)
val new_group : t -> group

(** [group_lit t g] is the assumption literal that activates the
    group's clauses for one [solve] call. *)
val group_lit : t -> group -> Lit.t

(** [add_grouped t g lits] adds [¬g ∨ lits]. Same simplification and
    return contract as {!add_clause}; if every literal of [lits] is
    false at the root the clause degenerates to the unit [¬g],
    permanently deactivating the group. Raises [Invalid_argument] on a
    retired group. *)
val add_grouped : t -> group -> Lit.t list -> bool

(** [retire_group t g] permanently disables the group (root unit [¬g])
    and frees its clauses; the arena reclaims the space at the next
    collection (triggered immediately when the 20% waste threshold is
    crossed). Learnt clauses are untouched. Raises [Invalid_argument]
    when already retired. *)
val retire_group : t -> group -> unit

(** [group_is_live t g] — has the group not been retired? *)
val group_is_live : t -> group -> bool

(** [group_clauses t g] is the number of stored (non-unit) clauses of a
    live group; 0 after retirement. *)
val group_clauses : t -> group -> int

val groups_live : t -> int
val groups_retired : t -> int

(** [learnts_kept t] — learnt clauses alive at each {!retire_group},
    summed over retirements: the knowledge carried across frame
    boundaries by an incremental session. *)
val learnts_kept : t -> int

(** [solve ?assumptions ?budget ?trace t] decides satisfiability of the
    clause set under the given assumption literals. Learnt clauses
    persist across calls.

    A call that returns [Sat] or [Unsat] leaves the solver above level
    0, holding the decision levels of its assumptions; the next call
    keeps those it shares with its own assumption list (same literals,
    same positions, from the first on) and re-decides the rest
    (docs/ALGORITHMS.md §14). Callers see no difference: {!add_clause},
    {!add_grouped}, {!retire_group} and {!enumerate_projected} start
    from level 0, {!root_value} reads only level-0 assignments, and
    {!model}, {!model_value} and {!unsat_core} read what the call
    captured. Callers that assume in a fixed outermost-first order
    gain the most.

    [budget] makes the call interruptible: conflicts are charged against
    it as they happen and the budget is polled at every conflict and every batch of
    decisions; on exhaustion the call returns [Unknown] (see {!result}).
    Without a budget, [solve] never returns [Unknown]. The same budget
    may be shared by many [solve] calls — charges accumulate — which is
    how the all-solutions engines bound a whole enumeration.

    [trace] receives {!Ps_util.Trace} events: a [Restart] per restart, a
    [Reduce_db] per learnt-DB reduction, and a [Solve] when the call
    finishes. *)
val solve :
  ?assumptions:Lit.t list ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  t ->
  result

(** [enumerate_projected ?budget ?trace ?shrink ?witness t proj f] reports every
    assignment of the variables [proj] that extends to a model of the
    clause set, by chronological backtracking inside the CDCL loop
    (docs/ALGORITHMS.md §13). [f bits mask] receives one pairwise
    disjoint cube per call: [bits] holds the values of [proj] (same
    positions, duplicates included) and [mask] marks the positions the
    cube fixes; [f] returns [true] to go on. It must not modify [mask]
    or call into [t] except through the testing hooks below.

    [witness] lists further variables: [bits] then goes on, past the
    projection positions, with their values in the total model behind
    the cube (read before [shrink] cuts it down), in [witness]'s order;
    [mask] stays over the projection positions.

    Without [shrink], every cube is a minterm ([mask] is all-true) and
    every assignment is reported exactly once. With [shrink], each total
    model is first passed to [shrink], which returns a mask over
    projection positions, in the contract of a lifting callback: every
    minterm of the model's cube restricted to the mask must extend to a
    model. The reported cube then fixes the masked positions, every
    position of a repeated variable, the projection literals assigned at
    or below the floor and everything they imply; it lies inside the
    lifted cube, so it is sound, and the
    cubes together cover every assignment. (docs/ALGORITHMS.md §13,
    "Shrinking a model to a cube".)

    Projection variables are decided first, chosen among themselves by
    VSIDS activity. After each model the deepest projection decision not
    yet flipped is flipped in place; flipped levels form a floor that
    backjumps and restarts never go below, and a conflict at the floor
    refutes that branch. No blocking clause is added: every learnt
    clause follows from the clause set alone, so [t] answers the same
    questions afterwards as before (a caller that wants the reported
    cubes excluded must block them itself).

    Returns [Unsat] once every assignment has been covered, [Sat] when
    [f] returned [false], and [Unknown] when [budget] ran out (polled
    like {!solve}: at every conflict and every batch of decisions; a
    flip or a re-decided literal counts as a decision). Counts as one
    call in ["solve_calls"]; every reported cube, lifted or not, adds
    one to ["chrono_cubes"]. *)
val enumerate_projected :
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?shrink:(bool array -> bool array) ->
  ?witness:Lit.var array ->
  t ->
  Lit.var array ->
  (bool array -> bool array -> bool) ->
  result

(** [model_value t v] is the value of [v] in the satisfying assignment
    found by the last [solve] call that returned [Sat]. The solver only
    decides variables that some stored clause mentions; any other
    variable the call left unassigned has its saved phase (false until
    an assignment, such as an assumption, is undone).
    Raises [Invalid_argument] if the last call did not return [Sat]. *)
val model_value : t -> Lit.var -> bool

(** [model t] is the full satisfying assignment of the last [Sat] answer. *)
val model : t -> bool array

(** [okay t] is [false] once the clause set is unsatisfiable at the root. *)
val okay : t -> bool

(** Root-level value of a variable, if it is fixed by unit propagation at
    decision level 0. *)
val root_value : t -> Lit.var -> bool option

(** Solver statistics: ["conflicts"], ["decisions"], ["propagations"],
    ["restarts"], ["learnt"], ["deleted"], ["solve_calls"],
    ["minimized_lits"], ["reduce_dbs"], ["watcher_visits"],
    ["blocker_skips"] (watcher visits resolved by the blocker literal
    alone, without touching clause memory), ["chrono_cubes"] (assignments
    reported by {!enumerate_projected}), ["arena_words"],
    ["arena_bytes"], ["arena_live_words"], ["arena_gcs"],
    ["arena_gc_words"] (cumulative words reclaimed by compaction),
    ["groups_live"], ["groups_retired"], ["learnts_kept"] (see
    {!learnts_kept}). *)
val stats : t -> Ps_util.Stats.t

(** [n_clauses t] is the number of live problem clauses (excluding learnt). *)
val n_clauses : t -> int

(** [n_learnts t] is the number of live learnt clauses. *)
val n_learnts : t -> int

(** [unsat_core t] — after [solve ~assumptions] returned [Unsat]: a
    subset of the assumptions that already makes the clauses
    unsatisfiable (not necessarily minimal; empty when the clause set is
    unsatisfiable on its own). *)
val unsat_core : t -> Lit.t list

(** {2 Introspection and testing hooks}

    These expose internal machinery for white-box tests and debugging;
    no engine should depend on them. *)

(** Checks the watcher/arena invariants: every clause list entry is a
    live arena block, the arena's live blocks are exactly the registered
    clauses, every watcher references a live clause through the negation
    of one of its two watched literals, and every clause is watched
    exactly twice. Returns [Error msg] describing the first violation. *)
val check_watches : t -> (unit, string) Stdlib.result

(** Force a learnt-DB reduction (normally triggered by the learnt-clause
    cap during search). May trigger an arena collection. *)
val dbg_reduce_db : t -> unit

(** Force an arena collection regardless of the wasted-space trigger. *)
val dbg_gc : t -> unit

(** Set the VSIDS bump increment (to exercise the rescale path). *)
val dbg_set_var_inc : t -> float -> unit

(** Current arena length in words (live + dead). *)
val arena_words : t -> int

(** Number of arena collections performed so far. *)
val arena_gcs : t -> int
