(** Reduced Ordered Binary Decision Diagrams.

    A small, self-contained ROBDD package in the style of CUDD/BuDDy minus
    complement edges and dynamic reordering: hash-consed nodes, memoized
    apply/ITE, quantification, vector composition, restriction, model
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

(** [nvar m v] is the function "not variable [v]". *)
val nvar : man -> int -> t

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
val bnand : t -> t -> t
val bnor : t -> t -> t
val bxnor : t -> t -> t
val bimp : t -> t -> t

(** [ite f g h] is if-then-else: [f·g ∨ ¬f·h]. *)
val ite : t -> t -> t -> t

(** [exists vars f] is [∃ vars . f]. *)
val exists : int list -> t -> t

(** [forall vars f] is [∀ vars . f]. *)
val forall : int list -> t -> t

(** [and_exists vars f g] is the relational product [∃ vars . f ∧ g],
    computed without building the full conjunction. *)
val and_exists : int list -> t -> t -> t

(** [restrict f ~var ~value] is the cofactor of [f]. *)
val restrict : t -> var:int -> value:bool -> t

(** [compose f subst] substitutes, {e simultaneously}, [subst.(v)] for
    every variable [v] of [f] ([subst] must cover all of [f]'s support;
    identity entries are fine). *)
val compose : t -> t array -> t

(** [cube m lits] is the conjunction of the given (variable, value)
    literals, in any order: a repeated literal counts once, a variable
    fixed both ways gives [zero]. It is built bottom-up, one node per
    variable. *)
val cube : man -> (int * bool) list -> t

(** [size f] is the number of distinct nodes reachable from [f],
    terminals included. *)
val size : t -> int

(** [support f] is the ascending list of variables [f] depends on. *)
val support : t -> int list

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

(** [any_sat f] is a satisfying partial assignment (as (var, value) pairs)
    when [f] is not [zero]. *)
val any_sat : t -> (int * bool) list option

(** [of_cnf m clauses] conjoins clauses given as (variable, sign) literal
    lists. *)
val of_cnf : man -> (int * bool) list list -> t

(** [man_of f] is [f]'s manager. *)
val man_of : t -> man

val pp : Format.formatter -> t -> unit
