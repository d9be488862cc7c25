(** Gate-level sequential netlists.

    A netlist is an array of {e nets}, each driven by a primary input, a
    latch (DFF), or a gate over earlier-defined nets. Latch outputs act as
    pseudo-primary-inputs of the combinational core; latch data inputs are
    the next-state functions. This is the substrate every engine in the
    repository operates on.

    Netlists are immutable after construction (see {!Builder}); all
    structural queries are precomputed. *)

type driver =
  | Input
  | Latch of { data : int; init : bool option }
      (** [data] is the net feeding the DFF; [init] its reset value, if
          specified. The net carrying the [Latch] driver is the DFF
          {e output} (present-state variable). *)
  | Gate of Gate.kind * int array

type t

(** [make ~drivers ~names ~outputs] validates and freezes a netlist.
    Requirements: [names] are unique and nonempty; every fanin index is a
    valid net; gate arities are legal; the combinational part (gates) is
    acyclic; [outputs] are valid nets.
    Raises [Invalid_argument] with a diagnostic otherwise. *)
val make : drivers:driver array -> names:string array -> outputs:int list -> t

(** [find_cycle drivers] is a gate net on a combinational cycle, if the
    gates have one: the cycle {!make} rejects, found before it, so that a
    parser can say where it is. Every fanin must be a valid net. *)
val find_cycle : driver array -> int option

val num_nets : t -> int
val driver : t -> int -> driver
val name : t -> int -> string

(** [find t name] is the net with the given name.
    Raises [Not_found] if absent. *)
val find : t -> string -> int

val find_opt : t -> string -> int option

(** Primary input nets, in creation order. *)
val inputs : t -> int list

(** Latch (DFF) output nets — the present-state variables, in creation
    order. *)
val latches : t -> int list

(** [latch_data t net] is the data (next-state) net of latch [net]. *)
val latch_data : t -> int -> int

(** Primary output nets. *)
val outputs : t -> int list

(** Gate nets in a topological order of the combinational core: every
    gate appears after all its fanins (inputs and latch outputs are not
    listed). *)
val topo_gates : t -> int array

(** Number of gates (excluding inputs and latches). *)
val num_gates : t -> int

(** [fanouts t] maps each net to the list of gate nets it feeds
    (latch data edges are {e not} included). *)
val fanouts : t -> int list array

(** [cone t roots] is the set of nets in the transitive fanin of [roots],
    inclusive, crossing gates only (stops at inputs and latch outputs).
    Returned as a boolean membership array. *)
val cone : t -> int list -> bool array

(** [stats t] is (inputs, latches, gates, outputs). *)
val stats : t -> int * int * int * int

val pp : Format.formatter -> t -> unit
