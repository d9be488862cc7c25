(** Boolean expression front end.

    A small recursive-descent parser turning textual boolean expressions
    into syntax trees — the convenient way to write targets over named
    nets. Grammar (precedence low→high):

    {v
    expr   ::= iff
    iff    ::= imp ( "<->" imp )*
    imp    ::= or ( "->" or )*          (right-associative)
    or     ::= xor ( ("|" | "+") xor )*
    xor    ::= and ( "^" and )*
    and    ::= unary ( ("&" | "*") unary )*
    unary  ::= ("!" | "~") unary | atom
    atom   ::= "0" | "1" | identifier | "(" expr ")"
    v}

    Identifiers are netlist net names ([A-Za-z0-9_.\[\]] characters). *)

type t =
  | Const of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

(** [parse s] parses an expression.
    Raises [Failure] with a position-annotated message on syntax errors. *)
val parse : string -> t

(** [vars e] is the sorted list of distinct identifiers in [e]. *)
val vars : t -> string list

(** [eval e lookup] evaluates under an environment.
    Raises [Not_found] if [lookup] does. *)
val eval : t -> (string -> bool) -> bool

val pp : Format.formatter -> t -> unit
