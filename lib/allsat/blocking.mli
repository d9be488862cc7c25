(** All-solutions enumeration by blocking clauses — the classical baseline.

    Repeatedly: solve; read the projected minterm out of the model; add
    its negation as a permanent clause; continue until UNSAT. The
    minterms are pairwise disjoint, and the clause database grows by one
    clause per solution — the blow-up the paper's solution graph avoids.
    So once the blocking clauses outnumber the problem clauses the
    solver held on entry, the rest of the minterms are drained by
    chronological enumeration inside the solver
    ({!Ps_sat.Solver.enumerate_projected}), which adds no clause at all.
    While the classical calls have cost at most one conflict each, that
    threshold is halved for every projection variable fixed at the root
    on entry (a {!Parallel} shard's prefix units, say): a dense shard
    hands over in proportion to its share of the space, a sparse one
    keeps the full threshold.

    With lifting, there is no classical loop: one chronological
    enumeration shrinks each model to a cube inside the lifting
    callback's cube (docs/ALGORITHMS.md §13). The cubes are pairwise
    disjoint, their union is exactly the projected solution set, and the
    solver gains no clause. *)

(** [enumerate ?limit ?budget ?trace ?sink ?keep_witnesses ?lift ?prior
    solver proj] drains all
    solutions of the clauses already loaded in [solver], projected onto
    [proj], returning the unified {!Run.t}.

    [lift model] must return a mask over projection positions — the
    positions to keep fixed (the rest become don't-cares). It must be
    {e sound}: every minterm of the resulting cube must extend to a model.
    Each reported cube fixes at least those positions (and every
    position of a variable that occurs at several), so it may fix more
    than the lift asks for. Omitting [lift] yields minterm enumeration.
    Raises [Invalid_argument] when a mask has the wrong width.

    [limit] bounds the number of cubes (guard against exponential
    enumerations); the result is then stopped with [`CubeLimit].

    [budget] bounds the whole enumeration: it is polled before every
    SAT call and shared with the solver, so a deadline or conflict
    limit interrupts even a single hard call or the chronological
    phase. The result then carries the budget's stop reason and the
    cubes found so far (an anytime under-approximation).

    [trace] receives a [Cube] event per emitted cube, the solver's
    events, and a final [Stopped] event.

    [sink] receives every emitted cube in discovery order, as it is
    found, together with its {!Witness} ({!Run.sink.on_cube}) — the
    streaming hook of the durable solution store. The witness is the
    values of the solver's other variables in the model the cube was
    cut from, read where the cube is reported (in the chronological
    phase, before a lift shrinks the model). Witnesses are captured
    only when [sink] is given or [keep_witnesses] is set. Without a
    lift, or with {!Cnf_lift}, cube and witness together satisfy every
    clause; with a circuit lift ({!Lifting}) they need not (see
    {!Witness}).
    [keep_witnesses] (default [false]) keeps them in the result's
    [witnesses] too; {!Parallel}'s shards use it to carry them to the
    merged stream.

    [prior] are cubes already enumerated, say by a killed run being
    resumed: each is blocked before the first call and counts as a
    blocking clause towards the hand-over, so a run resumed late drains
    the rest chronologically. They are not reported again. A lifting
    callback does not see their blocking clauses, so new lifted cubes
    may overlap recovered ones; they are disjoint among themselves, and
    prior and new cubes together cover the solution set exactly.

    Nothing found in the chronological phase is blocked in [solver]
    (a lifted run adds only [prior]'s clauses): callers that continue
    pass the returned cubes as [prior] to a fresh solver, as [--resume]
    does. *)
val enumerate :
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  ?keep_witnesses:bool ->
  ?lift:(bool array -> bool array) ->
  ?prior:Cube.t list ->
  Ps_sat.Solver.t ->
  Project.t ->
  Run.t

(** [sat_calls r] is the number of entry calls into the solver: every
    classical [solve], plus one for the chronological enumeration when
    the run handed over. A lifted run makes that one call only (none
    when blocking [prior] already leaves nothing). *)
val sat_calls : Run.t -> int
