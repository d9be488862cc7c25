(** The solution graph: the paper's compact all-solutions representation.

    Instead of materializing one blocking clause (or one cube) per
    solution, the success-driven searcher folds its search tree into a
    hash-consed, reduced decision graph over the projection positions —
    node [(v, lo, hi)] reads "if position [v] then solutions [hi] else
    solutions [lo]", with don't-care levels skipped by reduction.
    Equivalent subtrees discovered by success-driven learning point at
    the same node, so the graph is typically exponentially smaller than
    the solution list.

    The nodes are {!Ps_bdd.Bdd} nodes, made by {!Ps_bdd.Bdd.mk} in a
    manager of their own. Static decisions give an ordered BDD; dynamic
    decisions give a {e free} BDD (per-path variable orders). The type
    is abstract so that a free graph never reaches the operations that
    assume the order: the graph is only what the search builds and what
    is read off it. Unions, counts and comparisons go through {!to_bdd}
    or {!Cube_set.to_bdd}. *)

type man
type t

(** [new_man ~width] creates a manager for graphs over projection
    positions [0 .. width-1]. *)
val new_man : width:int -> man

val zero : man -> t
val one : man -> t
val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool

(** [mk m ~level ~lo ~hi] is the reduced, hash-consed node
    ({!Ps_bdd.Bdd.mk}: the level is range-checked, the order is not). *)
val mk : man -> level:int -> lo:t -> hi:t -> t

(** [size f] is the number of nodes reachable from [f] (terminals
    included). *)
val size : t -> int

(** [count_models f] is the number of projected assignments in the
    solution set (don't-care levels multiply), as float. Requires an
    {e ordered} graph (levels increase along every path) — the static
    searcher's graphs satisfy this; for free graphs
    (dynamic decisions) use {!count_models_paths}. *)
val count_models : t -> float

(** [count_models_paths f] counts by path enumeration — linear in the
    number of 1-paths instead of the node count, but correct for
    {e free} graphs too (each path tests a variable at most once). *)
val count_models_paths : t -> float

(** [count_paths memo f] is the number of 1-paths — the number of
    disjoint cubes {!cubes} returns. [memo] holds the count of every
    node visited, keyed by {!Ps_bdd.Bdd.id}; sharing one table across
    the calls on a growing graph (the SDS cube-limit check) makes them
    amortized O(new nodes). *)
val count_paths : (int, float) Hashtbl.t -> t -> float

(** [cubes f] is one cube per path to the 1-terminal ({!Cube_set.of_bdd}):
    disjoint cubes covering exactly the solution set, 0-branch first. *)
val cubes : t -> Cube.t list

(** [to_bdd bman vars f] is [f] copied into [bman] ({!Ps_bdd.Bdd.copy}),
    mapping level [i] to BDD variable [vars.(i)]. Any injective mapping
    gives the correct function, and the result is ordered even when [f]
    is free; strictly increasing [vars] on an ordered graph additionally
    makes it linear-time. *)
val to_bdd : Ps_bdd.Bdd.man -> int array -> t -> Ps_bdd.Bdd.t
