(** Gate primitives and their 2-valued / 3-valued semantics.

    The gate library is the ISCAS-89 [.bench] repertoire: n-ary
    AND/NAND/OR/NOR/XOR/XNOR, unary NOT/BUF, and constants. Three-valued
    evaluation ([tri]) follows the standard dominance rules (a controlling
    value on any input decides the output even when other inputs are X);
    it is the engine behind the success-driven searcher's early
    satisfaction/refutation detection. *)

type kind =
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Const0
  | Const1

(** Three-valued logic: false, true, unknown. *)
type tri = F | T | X

(** [arity_ok kind n] checks that [n] inputs are legal for [kind]
    (constants take 0, NOT/BUF exactly 1, the rest at least 1). *)
val arity_ok : kind -> int -> bool

(** [eval kind inputs] is the 2-valued output.
    Raises [Invalid_argument] on bad arity. *)
val eval : kind -> bool array -> bool

(** [eval3 kind inputs] is the 3-valued output with X-propagation and
    controlling-value dominance. *)
val eval3 : kind -> tri array -> tri

val tri_of_bool : bool -> tri

(** [bool_of_tri t] is [Some] for [F]/[T], [None] for [X]. *)
val bool_of_tri : tri -> bool option

val kind_to_string : kind -> string

(** [kind_of_string s] parses a [.bench] gate name (case-insensitive;
    accepts [BUFF] for [Buf]). *)
val kind_of_string : string -> kind option

(** All gate kinds, for random generation and exhaustive tests. *)
val all_kinds : kind list
