(** And-Inverter Graphs.

    The normalized circuit representation used by modern equivalence
    checkers and SAT front ends: two-input AND nodes with complemented
    edges, structurally hashed so syntactically equal subfunctions share
    one node. Here it serves as a technology-independent size metric:
    Table 1's AIG-node column is {!num_nodes} of {!of_netlist}.

    A {e literal} packs a node index and a complement bit ([2*node] /
    [2*node + 1]), mirroring {!Ps_sat.Lit}. Node 0 is the constant
    [false] (literal [0]), so literal [1] is constant [true]. *)

type t
type lit = int

val create : unit -> t

(** [true_lit] / [false_lit] — the constant literals. *)
val true_lit : lit

val false_lit : lit

(** [fresh_input a] allocates a primary-input node and returns its
    positive literal. *)
val fresh_input : t -> lit

(** [neg l] complements a literal. *)
val neg : lit -> lit

(** [conj a x y] is the structurally hashed AND of two literals, with
    the standard simplifications (constants, idempotence, complements). *)
val conj : t -> lit -> lit -> lit

(** [num_nodes a] is the number of AND nodes (inputs and the constant
    excluded) — the standard AIG size metric. *)
val num_nodes : t -> int

val num_inputs : t -> int

(** [eval a assignment l] evaluates literal [l]; [assignment] maps input
    nodes (in allocation order) to values. *)
val eval : t -> bool array -> lit -> bool

(** [of_netlist n] converts a netlist's combinational core. Inputs and
    latch outputs become AIG inputs (in [Netlist.inputs n @
    Netlist.latches n] order); returns the AIG and the literal of every
    net. *)
val of_netlist : Netlist.t -> t * lit array
