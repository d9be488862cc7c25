(** The solution graph: the paper's compact all-solutions representation.

    Instead of materializing one blocking clause (or one cube) per
    solution, the success-driven searcher folds its search tree into a
    hash-consed, reduced, ordered decision graph over the projection
    variables — node [(v, lo, hi)] reads "if variable [v] then solutions
    [hi] else solutions [lo]", with don't-care levels skipped by
    reduction. Equivalent subtrees discovered by success-driven learning
    point at the same node, so the graph is typically exponentially
    smaller than the solution list.

    Structurally this is an ROBDD over the projection space (a free BDD
    under dynamic decisions); the test suite exploits that by checking
    isomorphism against {!Ps_bdd.Bdd}. The graph is only what the search
    builds and what is read off it: it has no set operations. Unions,
    counts and comparisons of cube lists go through {!Cube_set.to_bdd}. *)

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

(** [mk m ~level ~lo ~hi] is the reduced, hash-consed node. *)
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

(** [count_paths f] is the number of 1-paths — the number of disjoint
    cubes {!iter_cubes} would emit. Cached per node in the manager, so
    repeated calls during a growing search are amortized O(new nodes). *)
val count_paths : t -> float

(** [iter_cubes f k] calls [k] per path to the 1-terminal; paths are
    disjoint cubes covering exactly the solution set. *)
val iter_cubes : t -> (Cube.t -> unit) -> unit

(** [cubes f] collects {!iter_cubes}. *)
val cubes : t -> Cube.t list

(** [to_bdd bman vars f] converts into a {!Ps_bdd.Bdd} over [bman],
    mapping level [i] to BDD variable [vars.(i)]. The conversion is
    ITE-based, so any injective mapping gives the correct function;
    strictly increasing [vars] additionally makes it linear-time. *)
val to_bdd : Ps_bdd.Bdd.man -> int array -> t -> Ps_bdd.Bdd.t
