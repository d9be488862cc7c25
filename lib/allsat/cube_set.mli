(** Cube lists as sets: conversion to and from {!Ps_bdd.Bdd}, union
    counting, and post-processing by subsumption removal and adjacency
    merging.

    Every fold of a cube list into a decision diagram goes through
    {!to_bdd}; the solution graph ({!Solution_graph}) is only what the
    success-driven search builds.

    The blocking engines emit cubes in discovery order; {!reduce},
    {!merge_pass} and {!minimize} shrink such lists without changing the
    union (the invariant the property tests enforce):

    - {e subsumption}: drop any cube contained in another;
    - {e merging}: two cubes identical except for one position where they
      hold opposite values combine into one cube with a don't-care there
      (the distance-1 case of the consensus rule), iterated to fixpoint.

    This is a light-weight two-level minimizer in the espresso spirit —
    enough to quantify how far from minimal the enumerated cover is. *)

(** [reduce cubes] removes subsumed cubes (keeps first occurrences).
    Implemented on the shared {!Cube_trie} subsumption index, so it is
    near-linear in the number of cubes instead of the historical
    pairwise O(n²) scan; the semantics are unchanged: duplicates are
    collapsed, a cube survives iff no distinct cube subsumes it, and the
    output is in {!Cube.compare} order. *)
val reduce : Cube.t list -> Cube.t list

(** [merge_pass cubes] performs one pass of distance-1 merging. *)
val merge_pass : Cube.t list -> Cube.t list

(** [minimize cubes] iterates merge + reduce to a fixpoint. *)
val minimize : Cube.t list -> Cube.t list

(** [to_bdd ?var_of_pos man cubes] is the union of [cubes] as a BDD of
    [man], mapping cube position [i] to BDD variable [var_of_pos.(i)]
    (default: the identity). Overlapping cubes are fine. *)
val to_bdd :
  ?var_of_pos:int array -> Ps_bdd.Bdd.man -> Cube.t list -> Ps_bdd.Bdd.t

(** [of_bdd f ~width] is [f]'s canonical cube list: one cube per path to
    the 1-terminal, pairwise disjoint, over BDD variables
    [0 .. width-1]. *)
val of_bdd : Ps_bdd.Bdd.t -> width:int -> Cube.t list

(** [union_count width cubes] is the size of the union of possibly
    overlapping cubes, as a float. A cover known to be disjoint is
    counted by summing instead ({!Run.solutions}).
    {b Precision}: the count is exact only for [width <= 53]; beyond
    that, IEEE doubles cannot represent every integer count and the
    value may silently round (e.g. a near-full cover of a width-60 space
    of [2^60 - 1] minterms). Use {!union_count_checked} when the caller
    must know whether bits were lost. *)
val union_count : int -> Cube.t list -> float

(** A model count with an explicit exactness label. [value] is never
    infinite (counts past [Float.max_float] are clamped); [exact] is a
    conservative guarantee — [true] only when the float is provably the
    true integer count (all intermediate sums representable, which holds
    whenever [width <= 53]). *)
type count = { value : float; exact : bool }

(** [union_count_checked width cubes] is {!union_count} with the
    precision made explicit instead of silently losing bits: for
    [width <= 53] the result is [{ value; exact = true }]; for wider
    spaces [exact = false] and an overflow to infinity is clamped to
    [Float.max_float]. *)
val union_count_checked : int -> Cube.t list -> count

(** [equal_union width a b] — do two cube lists denote the same set? *)
val equal_union : int -> Cube.t list -> Cube.t list -> bool
