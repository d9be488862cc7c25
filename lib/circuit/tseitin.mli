(** Tseitin CNF encoding of the combinational core.

    Every net [i] is encoded as CNF variable [i] (identity mapping), so
    callers translate between nets and solver variables for free. Primary
    inputs and latch outputs are unconstrained variables; each gate
    contributes its standard consistency clauses. Wide XOR/XNOR gates are
    chained through auxiliary variables allocated after the net block.

    The encoding is {e functionally precise}: an assignment satisfies the
    clause set iff every gate variable equals the function of its fanins —
    so projections onto input/state variables are exact, which the
    all-solutions engines rely on. *)

(** [encode ?cone n] is the CNF of the gates of [n] (all gates, or only
    those with [cone.(net) = true]). Variables [0 .. num_nets-1] map to
    nets; variables beyond are XOR-chain auxiliaries. *)
val encode : ?cone:bool array -> Netlist.t -> Ps_sat.Cnf.t
