(** The SAT all-solutions preimage engines behind one interface.

    Five methods, matching the paper's comparison matrix:
    - [Sds] — the contribution: success-driven search with solution graph.
    - [SdsDynamic] — same search with dynamic (frontier-first) decisions;
      the solution graph is then a {e free} BDD, as in the original
      solver.
    - [SdsNoMemo] — ablation: same search without success-driven learning.
    - [Blocking] — classical baseline: one blocking clause per projected
      minterm.
    - [BlockingLift] — baseline + cube enlargement: each model shrunk to
      a justification-lifted cube inside one chronological enumeration
      ({!Ps_allsat.Blocking}); disjoint cubes, no blocking clause.

    All methods return the {e same} solution set (cross-checked in the
    test suite); they differ in time, SAT calls, and representation
    size. Every method runs through the same unified
    {!Ps_allsat.Run.t} outcome, accepts the same resource budget, and
    reports the same structured stop reason — so a caller can bound,
    cancel, and observe any engine identically. *)

type method_ = Sds | SdsDynamic | SdsNoMemo | Blocking | BlockingLift

val method_name : method_ -> string
val all_methods : method_ list

(** One engine run. [run] is the unified engine outcome shared by the
    SDS and blocking paths — cubes, optional solution graph, stats, and
    the structured stop reason. The remaining fields are derived
    conveniences: [solutions] is the exact number of projected
    solutions {e found} (total iff the run is complete), counted the same
    way for every method by {!Ps_allsat.Run.solutions}, [n_cubes] the
    cube count, [graph_nodes] the result-graph node count (SDS only). *)
type result = {
  method_ : method_;
  run : Ps_allsat.Run.t;
  solutions : float;
  n_cubes : int;
  graph_nodes : int option;
  time_s : float;
}

val cubes : result -> Ps_allsat.Cube.t list
val graph : result -> Ps_allsat.Solution_graph.t option
val stats : result -> Ps_util.Stats.t
val stopped : result -> Ps_allsat.Run.stopped

(** [complete r] — did the engine exhaust the solution set? *)
val complete : result -> bool

(** [run ?budget ?trace ?limit method_ instance] executes one engine on
    a fresh solver.

    [limit] caps the number of enumerated cubes {e uniformly}: for the
    blocking engines it bounds the emitted cubes, for the SDS engines
    the committed disjoint solution-graph paths; either way the run
    stops with [`CubeLimit] and the partial result is returned.

    [budget] bounds the whole run (wall clock, conflicts, cancellation)
    — see {!Ps_util.Budget}. On exhaustion the result carries the
    budget's stop reason and everything found so far: a sound anytime
    under-approximation of the solution set.

    [trace] observes the run: engine [Phase] markers, solver restarts
    and reductions, per-cube and memo-hit events, and a final
    [Stopped] — see {!Ps_util.Trace} and docs/OBSERVABILITY.md.

    [jobs] switches to guiding-path parallel enumeration
    ({!Ps_allsat.Parallel}): the projection space is split into
    disjoint prefix shards, each enumerated by [method_] on a fresh
    solver, on a pool of [jobs] worker domains. The merged result is
    deterministic — independent of [jobs] (including [jobs = 1], which
    runs the same shards inline) — and [budget] is enforced
    globally across all shards. The merged run carries no solution
    graph, so [graph_nodes] is [None] even for the SDS methods;
    [trace] additionally receives per-shard [Shard_start] /
    [Shard_done] events. The partition has [2^(min width 4)] shards;
    omitting [jobs] runs the classic sequential path (no sharding at
    all). *)
val run :
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?limit:int ->
  ?jobs:int ->
  method_ ->
  Instance.t ->
  result

(** [enumerate ?prefix ?limit ?budget ?trace method_ ~netlist ~root
    ~proj solver] is one sequential run of [method_] on [solver], which
    must hold [netlist]'s CNF with [root] asserted; [proj] projects onto
    nets of [netlist]. [prefix] confines the run to one guiding-path
    shard (a cube fixing leading positions). {!run} calls it on an
    instance; {!Kstep} and {!Atpg} call it on their own netlists. *)
val enumerate :
  ?prefix:Ps_allsat.Cube.t ->
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  method_ ->
  netlist:Ps_circuit.Netlist.t ->
  root:int ->
  proj:Ps_allsat.Project.t ->
  Ps_sat.Solver.t ->
  Ps_allsat.Run.t

(** [solution_count_of_cubes width cubes] is the exact cardinality of
    the union of (possibly overlapping) cubes:
    {!Ps_allsat.Cube_set.union_count}. An engine's own cubes are
    disjoint and counted by summing ([result.solutions]). *)
val solution_count_of_cubes : int -> Ps_allsat.Cube.t list -> float
