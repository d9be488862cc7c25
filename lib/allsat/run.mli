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
      shards'); [None] otherwise. A run streaming into a witness-taking
      {!sink} does not keep them here.
    - [graph]: the hash-consed {!Solution_graph} (SDS engines only).
    - [stats]: engine + solver counters.
    - [stopped]: how the run ended. [`Complete] means the solution set
      is exhausted; anything else marks a {e partial} (anytime) result —
      the cubes found so far are all sound, just not exhaustive. *)

(** Why the run ended. [`CubeLimit] is the explicit cube cap; the
    remaining non-[`Complete] reasons come from the
    {!Ps_util.Budget.stop} of the run's budget. *)
type stopped =
  [ `Complete
  | `CubeLimit
  | `Deadline
  | `Conflicts
  | `Decisions
  | `Propagations
  | `Cancelled ]

type t = {
  cubes : Cube.t list;
  witnesses : Witness.t list option;
  graph : Solution_graph.t option;
  stats : Ps_util.Stats.t;
  stopped : stopped;
}

(** A streaming consumer of enumerated cubes, threaded through every
    producer of a {!t} (Blocking, SDS, k-step, Parallel, and the
    reachability sessions). The concrete implementation is the durable
    solution store ([Ps_store.Store.sink]), but any observer fits.

    - [on_cube c] is called once per discovered cube. The blocking
      engines call it in discovery order as each cube is found (so a
      crash loses at most the in-flight cube); SDS calls it with the
      graph's disjoint path cubes when the search finishes; {!Parallel}
      calls it with the deterministically merged, re-anchored cubes
      after the merge.
    - [on_shard ~prefix ~cubes] is called by {!Parallel} when a
      guiding-path shard completes, with the shard's re-anchored cubes —
      the durable scratch record that survives a crash before the final
      merge. Calls may come from different worker domains concurrently,
      but always with {e distinct} prefixes; implementations must be
      safe under that (e.g. one file per prefix). Completion order is
      nondeterministic across runs; the final [on_cube] stream is the
      deterministic one.
    - [witnessed]: [Some] when the sink takes {!Witness}es. A producer
      that captures them ({!Blocking}, and {!Parallel} over shards that
      kept theirs) then calls [on_witnessed] / [on_witnessed_shard]
      {e instead of} [on_cube] / [on_shard]; one that does not (SDS)
      calls the plain ones. With [None], nothing is captured. *)
type sink = {
  on_cube : Cube.t -> unit;
  on_shard : prefix:string -> cubes:Cube.t list -> unit;
  witnessed : witnessed option;
}

and witnessed = {
  on_witnessed : Cube.t -> Witness.t -> unit;
  on_witnessed_shard : prefix:string -> cubes:(Cube.t * Witness.t) list -> unit;
}

(** [sink_of_fun f] is a sink whose [on_cube] is [f], whose [on_shard]
    does nothing, and which takes no witnesses. *)
val sink_of_fun : (Cube.t -> unit) -> sink

(** [takes_witnesses sink] — is [sink] given and witness-taking? *)
val takes_witnesses : sink option -> bool

(** [emit_cube ?witness sink c] / [emit_cubes ?witnesses sink cs] hand
    the cubes to [on_witnessed], paired with their witnesses, when both
    are there, and to [on_cube] otherwise; no-ops on [None]. *)
val emit_cube : ?witness:Witness.t -> sink option -> Cube.t -> unit

val emit_cubes : ?witnesses:Witness.t list -> sink option -> Cube.t list -> unit

(** [solutions r] is the number of projected solutions [r] found: the
    sum of its cubes' minterm counts, exact by the disjointness
    invariant above. Cubes that may overlap are counted by
    {!Cube_set.union_count}. *)
val solutions : t -> float

(** [complete r] is [r.stopped = `Complete]. *)
val complete : t -> bool

val stopped_name : stopped -> string
val pp_stopped : Format.formatter -> stopped -> unit

(** [stopped_of_budget b ~default] is the budget's sticky stop reason,
    or [default] when the budget (if any) never fired. *)
val stopped_of_budget : Ps_util.Budget.t option -> default:stopped -> stopped
