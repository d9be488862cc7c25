(** Netlist structure metrics.

    Logic depth and fanout: the structural columns of the benchmark
    tables. *)

(** [depth n] is the maximum number of gates on any leaf-to-root
    combinational path (0 for a gate-free netlist). *)
val depth : Netlist.t -> int

(** [max_fanout n] is the largest gate fanout of any net (latch data
    edges not counted, as in {!Netlist.fanouts}). *)
val max_fanout : Netlist.t -> int
