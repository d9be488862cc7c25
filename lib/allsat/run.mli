(** The unified result of one all-solutions engine run.

    Every enumeration engine — blocking-clause ({!Blocking}), lifted
    blocking, and success-driven search ({!Sds}) — returns this one
    record, so callers never pattern-match on which engine produced it:

    - [cubes]: the enumerated solution cubes. For the blocking engines
      these are in discovery order; for SDS they are the paths of the
      solution graph. {b Invariant}: every engine's cubes are pairwise
      disjoint, unless a blocking run was given [prior] cubes (then they
      are disjoint among themselves but may overlap [prior]). A
      {!Parallel} run keeps it: shards partition the space and every
      shard's cubes are re-anchored under its prefix.
    - [witnesses]: the {!Witness} of every cube, in the order of
      [cubes], when the producer was asked to keep them
      ([Blocking.enumerate ~keep_witnesses]; {!Parallel} merges its
      shards'); [None] otherwise.
    - [graph]: the hash-consed {!Solution_graph} (SDS engines only).
    - [stats]: engine + solver counters.
    - [stopped]: how the run ended. [`Complete] means the solution set
      is exhausted; anything else marks a {e partial} (anytime) result —
      the cubes found so far are all sound, just not exhaustive. *)

(** Why the run ended. [`CubeLimit] is the explicit cube cap; the
    remaining non-[`Complete] reasons come from the
    {!Ps_util.Budget.stop} of the run's budget. *)
type stopped = [ `Complete | `CubeLimit | `Deadline | `Conflicts | `Cancelled ]

type t = {
  cubes : Cube.t list;
  witnesses : Witness.t list option;
  graph : Solution_graph.t option;
  stats : Ps_util.Stats.t;
  stopped : stopped;
}

(** The per-cube stream: a consumer of enumerated cubes, each with the
    {!Witness} of the model it was cut from when its producer has one.
    Two producers stream: {!Blocking.enumerate} and {!Parallel.run}.
    The concrete implementation is the durable solution store
    ([Ps_store.Store.sink]), but any observer fits.

    - [on_cube ?witness c] is called once per cube. {!Blocking} calls
      it in discovery order as each cube is found (so a crash loses at
      most the in-flight cube), always with the cube's witness;
      {!Parallel} calls it with the deterministically merged,
      re-anchored cubes after the merge, with their witnesses when every
      shard kept them.
    - [on_shard ~prefix cubes] is called by {!Parallel} once per
      completed guiding-path shard, with the shard's re-anchored cubes
      and their witnesses — the durable scratch record that survives a
      crash before the final merge. Calls may come from different worker
      domains concurrently, but always with {e distinct} prefixes;
      implementations must be safe under that (e.g. one file per
      prefix). Completion order is nondeterministic across runs; the
      final [on_cube] stream is the deterministic one. *)
type sink = {
  on_cube : ?witness:Witness.t -> Cube.t -> unit;
  on_shard : prefix:string -> (Cube.t * Witness.t option) list -> unit;
}

(** [sink_of_fun f] is a sink whose [on_cube] is [f], dropping the
    witness, and whose [on_shard] does nothing. *)
val sink_of_fun : (Cube.t -> unit) -> sink

(** [solutions r] is the number of projected solutions [r] found: the
    sum of its cubes' minterm counts, exact by the disjointness
    invariant above. Cubes that may overlap are counted by
    {!Cube_set.union_count}. *)
val solutions : t -> float

(** [complete r] is [r.stopped = `Complete]. *)
val complete : t -> bool

val stopped_name : stopped -> string

(** [stopped_of_budget b ~default] is the budget's sticky stop reason,
    or [default] when the budget (if any) never fired. *)
val stopped_of_budget : Ps_util.Budget.t option -> default:stopped -> stopped
