(** BDD-based preimage — the symbolic-model-checking baseline.

    A {!context} holds one BDD manager over the state and input
    variables and the BDD of every next-state function [δ_i(s, x)],
    built once by a topological walk of the next-state cone. A
    preimage evaluates the target DNF over those function BDDs
    (functional substitution — no intermediate transition relation) and
    existentially quantifies the primary inputs:

    [Pre(T)(s) = ∃x . T(δ(s, x))]

    so a fixpoint ({!Reach}) pays for the functions once and only for
    the target, the quantification and a copy at every frame.

    BDD variable space: state bit [i] ↦ variable [i]; primary input [j]
    ↦ variable [nstate + j]. *)

(** [next_state_functions man tr ~state_vars ~input_vars] is the BDD of
    each next-state net of [tr] (in [next_nets] order) over state bit
    [i] ↦ [state_vars.(i)] and input [j] ↦ [input_vars.(j)] of [man]:
    one topological walk of the gates in the cone of the next-state
    nets. Gates outside that cone (output-only logic) get no BDD. *)
val next_state_functions :
  Ps_bdd.Bdd.man ->
  Ps_circuit.Transition.t ->
  state_vars:int array ->
  input_vars:int array ->
  Ps_bdd.Bdd.t array

type context
(** A transition context: the manager and the next-state function
    BDDs of one circuit, built once. Every preimage taken in it adds to
    its manager. *)

(** [create circuit] builds the context. *)
val create : Ps_circuit.Netlist.t -> context

(** [preimage ?negate ctx ~into target] is [∃x . T(δ(s, x))] (with
    [negate], [∃x . ¬T(δ(s, x))]), copied onto the state variables
    [0 .. nstate-1] of [into] (state bit [i] ↦ variable [i]). [target]
    cubes have width = number of latches. *)
val preimage :
  ?negate:bool ->
  context ->
  into:Ps_bdd.Bdd.man ->
  Ps_allsat.Cube.t list ->
  Ps_bdd.Bdd.t

type result = {
  preimage : Ps_bdd.Bdd.t;     (** over the state variables of [man]
                                   (and the input variables when the
                                   instance projects over inputs) *)
  man : Ps_bdd.Bdd.man;
  nodes_allocated : int;       (** unique-table size after the run — the
                                   memory proxy reported in Table 3 *)
  preimage_size : int;         (** nodes in the result BDD *)
  time_s : float;
}

(** [run instance] computes one preimage in a fresh context.
    When the instance projects over states {e and} inputs, the result is
    the un-quantified constraint over both variable blocks. *)
val run : Instance.t -> result

(** [count r ~nstate] is the number of states in the preimage (inputs,
    if still present, are not counted — quantified results only). *)
val count : result -> nstate:int -> float
