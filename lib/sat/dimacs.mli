(** DIMACS CNF reader/writer.

    Standard [p cnf <vars> <clauses>] format with [c] comment lines;
    clauses may span lines and are terminated by [0].

    Parsing is streaming: input is consumed line by line, so loading a
    file keeps only the parsed clauses live — never a second copy of the
    document. Malformed input raises {!Parse_error} carrying the
    1-based line number of the offending construct.

    A header binds: with [p cnf V C], a clause literal or a
    [c p show] variable above [V] is an error at its line, and a
    clause count other than [C] is an error at the header's line.
    Input without a header is accepted, with as many variables as its
    largest literal. *)

(** Raised on malformed input; [line] is 1-based. For an unterminated
    final clause the line is where that clause started. A printer is
    registered, so [Printexc.to_string] yields
    ["DIMACS parse error at line N: ..."]. *)
exception Parse_error of { line : int; msg : string }

(** [parse_string s] reads a DIMACS document. Raises {!Parse_error}. *)
val parse_string : string -> Cnf.t

(** [parse_string_projected s] additionally returns the projection set
    declared by [c p show v1 v2 ... 0] comment lines (the projected
    model-counting convention), as 0-based variables in declaration
    order; [None] when no such line exists. *)
val parse_string_projected : string -> Cnf.t * Lit.var list option

(** [parse_file_projected path] — file variant of
    {!parse_string_projected}. *)
val parse_file_projected : string -> Cnf.t * Lit.var list option

(** [parse_file path] reads a DIMACS file. *)
val parse_file : string -> Cnf.t

(** [to_string cnf] renders [cnf] in DIMACS format. *)
val to_string : Cnf.t -> string
