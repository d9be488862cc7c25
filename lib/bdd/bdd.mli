(** Reduced Ordered Binary Decision Diagrams.

    A small, self-contained ROBDD package in the style of CUDD/BuDDy minus
    complement edges and dynamic reordering: hash-consed nodes, memoized
    apply/ITE, existential quantification, vector composition, model
    counting and cube iteration. It serves two roles in this repository:

    - the {e baseline engine} for preimage computation (relational product /
      functional composition, as in BDD-based model checkers), and
    - the {e cross-check oracle}: every all-SAT engine's solution set is
      converted to a BDD and compared for equality (node identity).

    Variables are identified by their {e level} [0 .. n-1]: level 0 is
    tested first (topmost). The variable order is fixed at manager
    creation. *)

type man
(** A manager owns the unique table and operation caches. BDDs from
    different managers must not be mixed (checked, raises
    [Invalid_argument]). *)

type t
(** A BDD handle. Structural equality of the pointed functions is handle
    equality ([equal]), thanks to hash-consing. *)

(** [new_man ~nvars] creates a manager with variables [0 .. nvars-1]. *)
val new_man : nvars:int -> man

val nvars : man -> int

(** [num_nodes m] is the number of live unique-table nodes (excluding the
    two terminals). A proxy for BDD memory use. *)
val num_nodes : man -> int

val zero : man -> t
val one : man -> t

(** [var m v] is the function "variable [v]". *)
val var : man -> int -> t

(** [mk m ~level ~lo ~hi] is the reduced, hash-consed node "if variable
    [level] then [hi] else [lo]" ([lo] itself when [lo == hi]). Raises
    [Invalid_argument] when [level] is out of range or a child belongs
    to another manager.

    [mk] does {e not} check the variable order: a child may test a
    variable above [level]. Such a {e free} diagram still works with
    {!eval}, {!size}, {!iter_cubes}, {!copy} and the node accessors, but
    the operations that assume the order ({!band} and the other
    connectives, {!ite}, quantification, {!compose},
    {!count_models}) give wrong results on it. *)
val mk : man -> level:int -> lo:t -> hi:t -> t

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool

(** [id f] is [f]'s unique-table identity (stable within a manager);
    suitable as a hash key — do not hash [t] structurally, nodes are
    cyclic. *)
val id : t -> int

(** [topvar f] is the variable tested at the root, [None] on terminals. *)
val topvar : t -> int option

(** [low f] and [high f] are the cofactors at the root.
    Raises [Invalid_argument] on terminals. *)
val low : t -> t

val high : t -> t

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bxnor : t -> t -> t

(** [ite f g h] is if-then-else: [f·g ∨ ¬f·h]. *)
val ite : t -> t -> t -> t

(** [exists vars f] is [∃ vars . f]. *)
val exists : int list -> t -> t

(** [and_exists vars f g] is the relational product [∃ vars . f ∧ g],
    computed without building the full conjunction. *)
val and_exists : int list -> t -> t -> t

(** [compose f subst] substitutes, {e simultaneously}, [subst.(v)] for
    every variable [v] of [f] ([subst] must cover all of [f]'s support;
    identity entries are fine). *)
val compose : t -> t array -> t

(** [copy ~into ~vars f] is [f] built in [into] with variable [v]
    renamed to [vars.(v)], by one [ite] per node of [f]. Any injective
    [vars] gives the right function, and [f] may be a free diagram
    ({!mk}); a map that keeps the order makes the copy linear-time.
    Raises [Invalid_argument] when [f] tests a variable outside
    [vars]. *)
val copy : into:man -> vars:int array -> t -> t

(** [cube m lits] is the conjunction of the given (variable, value)
    literals, in any order: a repeated literal counts once, a variable
    fixed both ways gives [zero]. It is built bottom-up, one node per
    variable. *)
val cube : man -> (int * bool) list -> t

(** [size f] is the number of distinct nodes reachable from [f],
    terminals included. *)
val size : t -> int

(** [count_models ~nvars f] is the number of satisfying assignments of
    [f] over the full space of [nvars] variables (i.e. free variables
    multiply the count), as a float to tolerate > 2^62. *)
val count_models : nvars:int -> t -> float

(** [iter_cubes f ~nvars k] calls [k] once per path to the 1-terminal;
    the argument array maps each variable to [Some value] (tested on the
    path) or [None] (don't-care). The cubes are disjoint and cover exactly
    the on-set. *)
val iter_cubes : t -> nvars:int -> ((bool option array) -> unit) -> unit

(** [eval f assignment] evaluates [f] under a total assignment indexed by
    variable. *)
val eval : t -> bool array -> bool

(** [man_of f] is [f]'s manager. *)
val man_of : t -> man
