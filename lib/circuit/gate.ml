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

type tri = F | T | X

let all_kinds = [ And; Nand; Or; Nor; Xor; Xnor; Not; Buf; Const0; Const1 ]

let arity_ok kind n =
  match kind with
  | Const0 | Const1 -> n = 0
  | Not | Buf -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 1

let bad_arity kind n =
  invalid_arg
    (Printf.sprintf "Gate.eval: bad arity %d for %s" n
       (match kind with
       | And -> "AND" | Nand -> "NAND" | Or -> "OR" | Nor -> "NOR"
       | Xor -> "XOR" | Xnor -> "XNOR" | Not -> "NOT" | Buf -> "BUF"
       | Const0 -> "CONST0" | Const1 -> "CONST1"))

let eval kind inputs =
  let n = Array.length inputs in
  if not (arity_ok kind n) then bad_arity kind n;
  match kind with
  | And -> Array.for_all Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Or -> Array.exists Fun.id inputs
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> acc <> b) false inputs
  | Xnor -> not (Array.fold_left (fun acc b -> acc <> b) false inputs)
  | Not -> not inputs.(0)
  | Buf -> inputs.(0)
  | Const0 -> false
  | Const1 -> true

let tri_of_bool b = if b then T else F

let bool_of_tri = function F -> Some false | T -> Some true | X -> None

let tri_not = function F -> T | T -> F | X -> X

(* AND over tri: F dominates; otherwise X if any X. *)
let tri_and inputs =
  let any_x = ref false in
  let any_f = ref false in
  Array.iter
    (function F -> any_f := true | X -> any_x := true | T -> ())
    inputs;
  if !any_f then F else if !any_x then X else T

let tri_or inputs =
  let any_x = ref false in
  let any_t = ref false in
  Array.iter
    (function T -> any_t := true | X -> any_x := true | F -> ())
    inputs;
  if !any_t then T else if !any_x then X else F

let tri_xor inputs =
  let acc = ref F in
  (try
     Array.iter
       (fun v ->
         match v with
         | X ->
           acc := X;
           raise Exit
         | T -> acc := tri_not !acc
         | F -> ())
       inputs
   with Exit -> ());
  !acc

let eval3 kind inputs =
  let n = Array.length inputs in
  if not (arity_ok kind n) then bad_arity kind n;
  match kind with
  | And -> tri_and inputs
  | Nand -> tri_not (tri_and inputs)
  | Or -> tri_or inputs
  | Nor -> tri_not (tri_or inputs)
  | Xor -> tri_xor inputs
  | Xnor -> tri_not (tri_xor inputs)
  | Not -> tri_not inputs.(0)
  | Buf -> inputs.(0)
  | Const0 -> F
  | Const1 -> T

let kind_to_string = function
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUFF"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "NOT" | "INV" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | "CONST0" | "GND" -> Some Const0
  | "CONST1" | "VCC" | "VDD" -> Some Const1
  | _ -> None

