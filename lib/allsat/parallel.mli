(** Guiding-path parallel enumeration over OCaml 5 domains.

    The projection space is split into [2^split_depth] disjoint prefix
    cubes — {e guiding paths} — by assigning every combination of the
    first [split_depth] projection positions. Each shard is one
    independent sequential enumeration (any engine) in its own solver
    instance, confined to its prefix; shards run on a pool of worker
    domains that claim them in prefix order. Because the shards partition
    the space, their solution sets union losslessly: no blocking
    clauses, no cross-shard coordination. The partition depends only
    on the width and [split_depth] — never on [jobs] or the scheduling
    — so merged results are reproducible across worker counts.

    {b Global budget.} All shards share the caller's (atomic)
    {!Ps_util.Budget.t}, so a conflict/deadline budget is enforced
    globally: the first shard to exhaust it records the sticky stop
    reason, every in-flight shard observes it at its next poll, and
    shards not yet started are dropped. The merged run then carries that stop
    reason and is a sound {e under-approximation} (every cube is a
    solution; the set is just not exhaustive).

    {b Deterministic merge.} Shard results are merged in prefix order
    (lexicographic = enumeration order of the partition), each shard's
    cubes are re-anchored under its prefix, stats are summed
    ({!Ps_util.Stats.sum}) and extended with ["shards"],
    ["shards_dropped"], ["par_jobs"] and ["shard_cubes_max"], and the stop reasons are joined with priority
    budget-stop > [`CubeLimit] > [`Complete].

    {b Witnesses.} When every shard that found a cube kept its
    witnesses ([Run.t.witnesses]; [Blocking.enumerate ~keep_witnesses]),
    the merged run keeps them too. A witness stays valid under its
    prefix, which the shard's model agrees with. *)

(** [guiding_paths ~width ~depth] is the ordered list of [2^depth]
    disjoint prefix cubes fixing positions [0..depth-1] (lexicographic:
    position 0 varies slowest). Raises [Invalid_argument] unless
    [0 <= depth <= width]. *)
val guiding_paths : width:int -> depth:int -> Cube.t list

(** [run ~width ~run_shard ()] enumerates the whole projection space of
    [width] positions by sharding it across [jobs] worker domains (the
    calling domain is worker 0, so [jobs = 1] spawns nothing and runs
    the shards inline — same shards, same merged result).

    [run_shard ~prefix ~limit ~budget ~trace] must run one sequential
    enumeration confined to the guiding path [prefix] (a cube fixing a
    contiguous run of leading positions) and return its {!Run.t}. It is
    called concurrently from several domains, so it must build a
    {e fresh} solver per call; [budget] is the shared global budget and
    [trace] is already serialized ({!Ps_util.Trace.locked}). Cubes it
    returns may leave the prefix positions don't-care — they are
    re-anchored under the prefix at merge.

    [limit] caps the {e total} number of merged cubes (the global
    analogue of the sequential engines' cube cap); every shard is run
    with the same [limit], and when the merged total reaches it the run
    stops with [`CubeLimit]. [trace] receives [Shard_start] /
    [Shard_done] events per shard plus everything the shard
    enumerations emit, and a final [Stopped] event.

    [sink] gets one [on_shard] call per completed shard, with its
    re-anchored cubes and their witnesses (if the shard kept them), and
    then one [on_cube] call per merged cube, with its witness when the
    merged run has them ({!Run.sink}).

    Exceptions raised by [run_shard] cancel the remaining work and are
    re-raised (first one wins) after the pool drains. *)
val run :
  ?jobs:int ->
  ?split_depth:int ->
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  width:int ->
  run_shard:
    (prefix:Cube.t ->
    limit:int option ->
    budget:Ps_util.Budget.t option ->
    trace:Ps_util.Trace.sink ->
    Run.t) ->
  unit ->
  Run.t
