(** Sequential transition-structure views.

    Collects the index machinery every preimage engine needs: the state
    variables (latch outputs), the next-state nets (latch data inputs)
    and the primary inputs. *)

type t = {
  netlist : Netlist.t;
  state_nets : int array;        (** latch output nets, position = state bit *)
  next_nets : int array;         (** latch data nets, same positions *)
  input_nets : int array;        (** primary input nets *)
}

val of_netlist : Netlist.t -> t

(** [num_state t] is the number of state bits. *)
val num_state : t -> int

val num_inputs : t -> int
