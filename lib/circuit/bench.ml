type statement =
  | St_input of string
  | St_output of string
  | St_def of string * string * string list  (* lhs, gate name, fanins *)

let syntax_error line_no msg =
  failwith (Printf.sprintf "Bench: line %d: %s" line_no msg)

let parse_line line_no line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else begin
    let paren_call s =
      (* "HEAD ( a , b )" -> (HEAD, [a; b]) *)
      match String.index_opt s '(' with
      | None -> syntax_error line_no "expected '('"
      | Some i ->
        let head = String.trim (String.sub s 0 i) in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        (match String.rindex_opt rest ')' with
        | None -> syntax_error line_no "expected ')'"
        | Some j ->
          let args = String.sub rest 0 j in
          let args =
            String.split_on_char ',' args
            |> List.map String.trim
            |> List.filter (fun a -> a <> "")
          in
          (head, args))
    in
    match String.index_opt line '=' with
    | None -> (
      let head, args = paren_call line in
      match (String.uppercase_ascii head, args) with
      | "INPUT", [ a ] -> Some (St_input a)
      | "OUTPUT", [ a ] -> Some (St_output a)
      | _ -> syntax_error line_no "expected INPUT(x) or OUTPUT(x)")
    | Some i ->
      let lhs = String.trim (String.sub line 0 i) in
      let rhs = String.sub line (i + 1) (String.length line - i - 1) in
      if lhs = "" then syntax_error line_no "empty left-hand side";
      let head, args = paren_call rhs in
      Some (St_def (lhs, head, args))
  end

let parse_string s =
  let statements =
    String.split_on_char '\n' s
    |> List.mapi (fun i line -> (i + 1, parse_line (i + 1) line))
    |> List.filter_map (fun (i, st) -> Option.map (fun st -> (i, st)) st)
  in
  (* First pass: allocate ids. Definition order: INPUTs and defined nets in
     order of appearance; referenced-but-undefined names are an error. *)
  let ids = Hashtbl.create 64 in
  let names = Ps_util.Vec.create ~dummy:"" in
  let declare line_no name =
    if Hashtbl.mem ids name then
      syntax_error line_no (Printf.sprintf "net %S defined twice" name);
    Hashtbl.add ids name (Ps_util.Vec.size names);
    Ps_util.Vec.push names name
  in
  List.iter
    (fun (line_no, st) ->
      match st with
      | St_input name -> declare line_no name
      | St_def (name, _, _) -> declare line_no name
      | St_output _ -> ())
    statements;
  let lookup line_no name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> syntax_error line_no (Printf.sprintf "undefined net %S" name)
  in
  let n = Ps_util.Vec.size names in
  let drivers = Array.make (max n 1) Netlist.Input in
  let outputs = ref [] in
  List.iter
    (fun (line_no, st) ->
      match st with
      | St_input _ -> ()
      | St_output name -> outputs := lookup line_no name :: !outputs
      | St_def (name, head, args) ->
        let id = lookup line_no name in
        let fanins () = Array.of_list (List.map (lookup line_no) args) in
        if String.uppercase_ascii head = "DFF" then begin
          match args with
          | [ d ] -> drivers.(id) <- Netlist.Latch { data = lookup line_no d; init = None }
          | _ -> syntax_error line_no "DFF takes exactly one input"
        end
        else begin
          match Gate.kind_of_string head with
          | Some kind ->
            if not (Gate.arity_ok kind (List.length args)) then
              syntax_error line_no
                (Printf.sprintf "%s gate %S cannot take %d inputs" head name
                   (List.length args));
            drivers.(id) <- Netlist.Gate (kind, fanins ())
          | None -> syntax_error line_no (Printf.sprintf "unknown gate %S" head)
        end)
    statements;
  let drivers = Array.sub drivers 0 n in
  (match Netlist.find_cycle drivers with
  | None -> ()
  | Some g ->
    let defines = function
      | _, St_def (name, _, _) -> name = Ps_util.Vec.get names g
      | _ -> false
    in
    syntax_error
      (fst (List.find defines statements))
      (Printf.sprintf "combinational cycle through %S" (Ps_util.Vec.get names g)));
  Netlist.make ~drivers
    ~names:(Ps_util.Vec.to_array names) ~outputs:(List.rev !outputs)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = really_input_string ic len in
      parse_string buf)

let to_string n =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# %d inputs, %d latches, %d gates, %d outputs"
    (List.length (Netlist.inputs n))
    (List.length (Netlist.latches n))
    (Netlist.num_gates n)
    (List.length (Netlist.outputs n));
  List.iter (fun i -> line "INPUT(%s)" (Netlist.name n i)) (Netlist.inputs n);
  List.iter (fun i -> line "OUTPUT(%s)" (Netlist.name n i)) (Netlist.outputs n);
  List.iter
    (fun l ->
      line "%s = DFF(%s)" (Netlist.name n l) (Netlist.name n (Netlist.latch_data n l)))
    (Netlist.latches n);
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (kind, fanins) ->
        line "%s = %s(%s)" (Netlist.name n g)
          (Gate.kind_to_string kind)
          (String.concat ", "
             (Array.to_list (Array.map (Netlist.name n) fanins)))
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  Buffer.contents buf
