(* A hand-rolled tokenizer/parser for the structural subset. *)

type token =
  | T_ident of string
  | T_lparen
  | T_rparen
  | T_comma
  | T_semi
  | T_eq

let keywords =
  [ "module"; "endmodule"; "input"; "output"; "wire"; "assign" ]

let strip_comments s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '/' && s.[!i + 1] = '/' then begin
      while !i < n && s.[!i] <> '\n' do
        incr i
      done
    end
    else if !i + 1 < n && s.[!i] = '/' && s.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (s.[!i] = '*' && s.[!i + 1] = '/') do
        (* keep newlines so error positions stay meaningful *)
        if s.[!i] = '\n' then Buffer.add_char buf '\n';
        incr i
      done;
      if !i + 1 >= n then failwith "Verilog: unterminated comment";
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

let tokenize s =
  let s = strip_comments s in
  let n = String.length s in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' then (tokens := (T_lparen, !line) :: !tokens; incr i)
    else if c = ')' then (tokens := (T_rparen, !line) :: !tokens; incr i)
    else if c = ',' then (tokens := (T_comma, !line) :: !tokens; incr i)
    else if c = ';' then (tokens := (T_semi, !line) :: !tokens; incr i)
    else if c = '=' then (tokens := (T_eq, !line) :: !tokens; incr i)
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      tokens := (T_ident (String.sub s start (!i - start)), !line) :: !tokens
    end
    else failwith (Printf.sprintf "Verilog: line %d: unexpected character %C" !line c)
  done;
  List.rev !tokens

type statement =
  | S_dirs of string * string list        (* input/output/wire, names *)
  | S_gate of int * string * string * string list  (* line, primitive, instance, args *)
  | S_assign of int * string * string  (* line, lhs, rhs *)

let fail line msg = failwith (Printf.sprintf "Verilog: line %d: %s" line msg)

let parse_statements tokens =
  let toks = ref tokens in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let pop () =
    match !toks with
    | [] -> failwith "Verilog: unexpected end of input"
    | t :: rest ->
      toks := rest;
      t
  in
  let expect t msg =
    let got, line = pop () in
    if got <> t then fail line ("expected " ^ msg)
  in
  let ident msg =
    match pop () with
    | T_ident s, _ -> s
    | _, line -> fail line ("expected " ^ msg)
  in
  let rec ident_list acc =
    let name = ident "an identifier" in
    match pop () with
    | T_comma, _ -> ident_list (name :: acc)
    | T_semi, _ -> List.rev (name :: acc)
    | _, line -> fail line "expected ',' or ';'"
  in
  (* header *)
  let () =
    match pop () with
    | T_ident "module", _ -> ()
    | _, line -> fail line "expected 'module'"
  in
  let _module_name = ident "module name" in
  expect T_lparen "'('";
  let rec skip_ports () =
    match pop () with
    | T_rparen, _ -> ()
    | (T_ident _ | T_comma), _ -> skip_ports ()
    | _, line -> fail line "malformed port list"
  in
  (match peek () with
  | Some (T_rparen, _) -> ignore (pop ())
  | _ -> skip_ports ());
  expect T_semi "';' after the port list";
  (* body *)
  let statements = ref [] in
  let finished = ref false in
  while not !finished do
    match pop () with
    | T_ident "endmodule", _ -> finished := true
    | T_ident kw, _ when List.mem kw [ "input"; "output"; "wire" ] ->
      statements := S_dirs (kw, ident_list []) :: !statements
    | T_ident "assign", line ->
      let lhs = ident "assign target" in
      expect T_eq "'='";
      let rhs = ident "assign source" in
      expect T_semi "';'";
      statements := S_assign (line, lhs, rhs) :: !statements
    | T_ident prim, line ->
      if List.mem prim keywords then fail line ("misplaced keyword " ^ prim);
      let inst = ident "instance name" in
      expect T_lparen "'('";
      let rec args acc =
        let a = ident "a net" in
        match pop () with
        | T_comma, _ -> args (a :: acc)
        | T_rparen, _ -> List.rev (a :: acc)
        | _, line -> fail line "expected ',' or ')'"
      in
      let arguments = args [] in
      expect T_semi "';'";
      statements := S_gate (line, prim, inst, arguments) :: !statements
    | _, line -> fail line "expected a statement"
  done;
  List.rev !statements

let parse_string s =
  let statements = parse_statements (tokenize s) in
  (* Collect declarations; definition order: inputs first (in declaration
     order), then driven nets in statement order. *)
  let inputs = ref [] in
  let outputs = ref [] in
  List.iter
    (function
      | S_dirs ("input", names) -> inputs := !inputs @ names
      | S_dirs ("output", names) -> outputs := !outputs @ names
      | S_dirs _ | S_gate _ | S_assign _ -> ())
    statements;
  let ids = Hashtbl.create 64 in
  let names = Ps_util.Vec.create ~dummy:"" in
  let declare name =
    if Hashtbl.mem ids name then
      failwith (Printf.sprintf "Verilog: net %S driven twice" name);
    Hashtbl.add ids name (Ps_util.Vec.size names);
    Ps_util.Vec.push names name
  in
  List.iter declare !inputs;
  List.iter
    (function
      | S_gate (_, _, _, out :: _) -> declare out
      | S_gate (line, _, inst, []) ->
        fail line (Printf.sprintf "gate %S has no connections" inst)
      | S_assign (_, lhs, _) -> declare lhs
      | S_dirs _ -> ())
    statements;
  let lookup name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Verilog: undriven net %S" name)
  in
  let n = Ps_util.Vec.size names in
  let drivers = Array.make (max n 1) Netlist.Input in
  List.iter
    (function
      | S_dirs _ -> ()
      | S_assign (_, lhs, rhs) ->
        drivers.(lookup lhs) <- Netlist.Gate (Gate.Buf, [| lookup rhs |])
      | S_gate (line, prim, inst, out :: ins) ->
        let fanins () = Array.of_list (List.map lookup ins) in
        if String.lowercase_ascii prim = "dff" then begin
          match ins with
          | [ d ] ->
            drivers.(lookup out) <- Netlist.Latch { data = lookup d; init = None }
          | _ -> failwith (Printf.sprintf "Verilog: dff %S needs (q, d)" inst)
        end
        else begin
          match Gate.kind_of_string prim with
          | Some kind ->
            if not (Gate.arity_ok kind (List.length ins)) then
              fail line
                (Printf.sprintf "gate %S (%s) cannot take %d inputs" inst prim
                   (List.length ins));
            drivers.(lookup out) <- Netlist.Gate (kind, fanins ())
          | None -> failwith (Printf.sprintf "Verilog: unknown primitive %S" prim)
        end
      | S_gate (_, _, _, []) -> assert false)
    statements;
  let drivers = Array.sub drivers 0 n in
  (match Netlist.find_cycle drivers with
  | None -> ()
  | Some g ->
    let net = Ps_util.Vec.get names g in
    let line =
      List.find_map
        (function
          | S_gate (line, _, _, out :: _) when out = net -> Some line
          | S_assign (line, lhs, _) when lhs = net -> Some line
          | _ -> None)
        statements
    in
    fail (Option.get line) (Printf.sprintf "combinational cycle through %S" net));
  Netlist.make ~drivers
    ~names:(Ps_util.Vec.to_array names)
    ~outputs:(List.map lookup !outputs)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      parse_string (really_input_string ic len))

let to_string ?(module_name = "top") n =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = Netlist.name n in
  let inputs = List.map name (Netlist.inputs n) in
  let outputs = List.map name (Netlist.outputs n) in
  line "module %s (%s);" module_name (String.concat ", " (inputs @ outputs));
  if inputs <> [] then line "  input %s;" (String.concat ", " inputs);
  if outputs <> [] then line "  output %s;" (String.concat ", " outputs);
  let internal =
    List.init (Netlist.num_nets n) Fun.id
    |> List.filter (fun i ->
           (match Netlist.driver n i with Netlist.Input -> false | _ -> true)
           && not (List.mem (name i) outputs))
    |> List.map name
  in
  if internal <> [] then line "  wire %s;" (String.concat ", " internal);
  List.iter
    (fun l ->
      line "  dff r_%s (%s, %s);" (name l) (name l) (name (Netlist.latch_data n l)))
    (Netlist.latches n);
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate ((Gate.Const0 | Gate.Const1) as kind, [||]) ->
        (* constants keep the bench-style primitive names; the parser
           resolves them through Gate.kind_of_string like any other *)
        line "  %s g_%s (%s);" (Gate.kind_to_string kind) (name g) (name g)
      | Netlist.Gate (kind, fanins) ->
        line "  %s g_%s (%s);"
          (String.lowercase_ascii (Gate.kind_to_string kind))
          (name g)
          (String.concat ", " (name g :: Array.to_list (Array.map name fanins)))
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  line "endmodule";
  Buffer.contents buf
