(** ISCAS-89 [.bench] netlist format.

    Grammar (one statement per line, [#] comments):
    {v
    INPUT(name)
    OUTPUT(name)
    name = GATE(fanin1, fanin2, ...)
    name = DFF(fanin)
    v}
    Gates are the {!Gate.kind} repertoire; [DFF] introduces a latch.
    Names may be used before they are defined (required for feedback). *)

(** [parse_string s] parses a [.bench] document.
    Raises [Failure] with a line-numbered message on malformed input,
    including a gate with the wrong number of fanins and a combinational
    cycle (the line of a gate on it). *)
val parse_string : string -> Netlist.t

val parse_file : string -> Netlist.t

(** [to_string n] renders [n] in [.bench] syntax; parsing it back yields
    a netlist isomorphic to [n] (same names, same structure). *)
val to_string : Netlist.t -> string
