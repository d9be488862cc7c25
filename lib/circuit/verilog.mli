(** Structural Verilog (gate-level subset).

    Reader/writer for the fragment of Verilog that gate-level netlists
    use — enough to exchange circuits with standard EDA flows:

    {v
    module name (port, port, ...);
      input  a, b;
      output y;
      wire   w1, w2;
      and  g1 (w1, a, b);       // gate primitives: and, nand, or, nor,
      xor  g2 (w2, w1, b);      //   xor, xnor, not, buf (output first)
      dff  r1 (q, w2);          // DFF: (output, data)
      assign y = w2;            // alias (emitted as a buf)
    endmodule
    v}

    One module per file; identifiers are simple names (no escaping, no
    buses); comments are [//] and [/* ... */]. Printing then re-parsing
    yields an isomorphic netlist. *)

(** [parse_string s] parses a module.
    Raises [Failure] with a line-numbered message on malformed input,
    including a gate with the wrong number of inputs and a combinational
    cycle (the line of a gate on it). *)
val parse_string : string -> Netlist.t

val parse_file : string -> Netlist.t

(** [to_string ?module_name n] renders [n] (default name ["top"]). *)
val to_string : ?module_name:string -> Netlist.t -> string

val write_file : ?module_name:string -> string -> Netlist.t -> unit
