type t =
  | Const of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

(* --- lexer ---------------------------------------------------------------- *)

type token =
  | T_ident of string
  | T_const of bool
  | T_not
  | T_and
  | T_or
  | T_xor
  | T_imp
  | T_iff
  | T_lparen
  | T_rparen

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '[' || c = ']'

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let error i msg = failwith (Printf.sprintf "Expr: at %d: %s" i msg) in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '!' || c = '~' then (tokens := T_not :: !tokens; incr i)
    else if c = '&' || c = '*' then (tokens := T_and :: !tokens; incr i)
    else if c = '|' || c = '+' then (tokens := T_or :: !tokens; incr i)
    else if c = '^' then (tokens := T_xor :: !tokens; incr i)
    else if c = '(' then (tokens := T_lparen :: !tokens; incr i)
    else if c = ')' then (tokens := T_rparen :: !tokens; incr i)
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then begin
      tokens := T_imp :: !tokens;
      i := !i + 2
    end
    else if c = '<' && !i + 2 < n && s.[!i + 1] = '-' && s.[!i + 2] = '>' then begin
      tokens := T_iff :: !tokens;
      i := !i + 3
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let word = String.sub s start (!i - start) in
      tokens :=
        (match word with
        | "0" -> T_const false
        | "1" -> T_const true
        | _ -> T_ident word)
        :: !tokens
    end
    else error !i (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* --- parser ---------------------------------------------------------------- *)

let parse s =
  let tokens = ref (tokenize s) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
  let expect t msg =
    match peek () with
    | Some t' when t' = t -> advance ()
    | _ -> failwith ("Expr: expected " ^ msg)
  in
  let rec p_iff () =
    let lhs = ref (p_imp ()) in
    while peek () = Some T_iff do
      advance ();
      let rhs = p_imp () in
      lhs := Not (Xor (!lhs, rhs))
    done;
    !lhs
  and p_imp () =
    let lhs = p_or () in
    if peek () = Some T_imp then begin
      advance ();
      let rhs = p_imp () in
      Or (Not lhs, rhs)
    end
    else lhs
  and p_or () =
    let lhs = ref (p_xor ()) in
    while peek () = Some T_or do
      advance ();
      lhs := Or (!lhs, p_xor ())
    done;
    !lhs
  and p_xor () =
    let lhs = ref (p_and ()) in
    while peek () = Some T_xor do
      advance ();
      lhs := Xor (!lhs, p_and ())
    done;
    !lhs
  and p_and () =
    let lhs = ref (p_unary ()) in
    while peek () = Some T_and do
      advance ();
      lhs := And (!lhs, p_unary ())
    done;
    !lhs
  and p_unary () =
    match peek () with
    | Some T_not ->
      advance ();
      Not (p_unary ())
    | _ -> p_atom ()
  and p_atom () =
    match peek () with
    | Some (T_const b) ->
      advance ();
      Const b
    | Some (T_ident name) ->
      advance ();
      Var name
    | Some T_lparen ->
      advance ();
      let e = p_iff () in
      expect T_rparen "')'";
      e
    | _ -> failwith "Expr: expected a variable, constant or '('"
  in
  let e = p_iff () in
  if !tokens <> [] then failwith "Expr: trailing tokens";
  e

(* --- semantics --------------------------------------------------------------- *)

let vars e =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | Const _ -> ()
    | Var v -> Hashtbl.replace tbl v ()
    | Not x -> go x
    | And (x, y) | Or (x, y) | Xor (x, y) ->
      go x;
      go y
  in
  go e;
  Hashtbl.fold (fun v () acc -> v :: acc) tbl [] |> List.sort compare

let rec eval e lookup =
  match e with
  | Const b -> b
  | Var v -> lookup v
  | Not x -> not (eval x lookup)
  | And (x, y) -> eval x lookup && eval y lookup
  | Or (x, y) -> eval x lookup || eval y lookup
  | Xor (x, y) -> eval x lookup <> eval y lookup

let rec pp ppf = function
  | Const b -> Format.pp_print_string ppf (if b then "1" else "0")
  | Var v -> Format.pp_print_string ppf v
  | Not x -> Format.fprintf ppf "!%a" pp_atom x
  | And (x, y) -> Format.fprintf ppf "%a & %a" pp_atom x pp_atom y
  | Or (x, y) -> Format.fprintf ppf "%a | %a" pp_atom x pp_atom y
  | Xor (x, y) -> Format.fprintf ppf "%a ^ %a" pp_atom x pp_atom y

and pp_atom ppf e =
  match e with
  | Const _ | Var _ | Not _ -> pp ppf e
  | And _ | Or _ | Xor _ -> Format.fprintf ppf "(%a)" pp e
