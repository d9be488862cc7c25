exception Parse_error of { line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } ->
      Some (Printf.sprintf "DIMACS parse error at line %d: %s" line msg)
    | _ -> None)

let error ~line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* Streaming parser state. Input is consumed one line at a time — live
   memory is the accumulated clauses, never a copy of the document. *)
type state = {
  mutable nvars : int;
  mutable header_seen : bool;
  mutable header_line : int;
  mutable nclauses : int; (* declared by the header *)
  mutable top : int; (* largest variable read in a clause, 1-based *)
  mutable top_line : int;
  mutable show_top : int; (* largest 'c p show' variable, 1-based *)
  mutable show_top_line : int;
  mutable clauses : Lit.t list list; (* reversed; clauses themselves reversed *)
  mutable current : Lit.t list; (* literals of the clause being read *)
  mutable current_line : int; (* line where [current] started *)
  mutable show : Lit.var list; (* reversed projection declaration *)
}

let make_state () =
  {
    nvars = 0;
    header_seen = false;
    header_line = 0;
    nclauses = 0;
    top = 0;
    top_line = 0;
    show_top = 0;
    show_top_line = 0;
    clauses = [];
    current = [];
    current_line = 0;
    show = [];
  }

let tokens_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun t -> t <> "")

(* [c p show v1 v2 ... 0] — the projected-counting convention. Several
   show lines concatenate. *)
let feed_show st ~line rest =
  List.iter
    (fun t ->
      match int_of_string_opt t with
      | Some 0 -> ()
      | Some n when n > 0 ->
        if n > st.show_top then begin
          st.show_top <- n;
          st.show_top_line <- line
        end;
        st.show <- (n - 1) :: st.show
      | Some n -> error ~line "negative variable %d in 'c p show'" n
      | None -> error ~line "bad token %S in 'c p show'" t)
    rest

(* A header bounds every variable: a literal above it is an error at
   the literal's line (checked as it is read, or in [finish] for clauses
   before the header). *)
let check_top st =
  if st.header_seen && st.top > st.nvars then
    error ~line:st.top_line "variable %d above the header's %d" st.top st.nvars

let feed_line st ~line raw =
  match tokens_of_line raw with
  | [] -> ()
  | "c" :: rest -> (
    match rest with
    | "p" :: "show" :: vars -> feed_show st ~line vars
    | _ -> () (* plain comment *))
  | "p" :: rest -> (
    if st.header_seen then error ~line "duplicate 'p cnf' header";
    match rest with
    | [ "cnf"; nv; nc ] -> (
      st.header_seen <- true;
      st.header_line <- line;
      (match int_of_string_opt nv with
      | Some n when n >= 0 -> st.nvars <- n
      | _ -> error ~line "bad variable count %S" nv);
      match int_of_string_opt nc with
      | Some n when n >= 0 -> st.nclauses <- n
      | _ -> error ~line "bad clause count %S" nc)
    | _ -> error ~line "malformed header (want 'p cnf <vars> <clauses>')")
  | toks ->
    List.iter
      (fun tok ->
        match int_of_string_opt tok with
        | None -> error ~line "unexpected token %S" tok
        | Some 0 ->
          st.clauses <- st.current :: st.clauses;
          st.current <- []
        | Some n ->
          if st.current = [] then st.current_line <- line;
          if abs n > st.top then begin
            st.top <- abs n;
            st.top_line <- line;
            check_top st
          end;
          st.current <- Lit.of_dimacs n :: st.current)
      toks

let finish st ~last_line =
  if st.current <> [] then
    error
      ~line:(if st.current_line > 0 then st.current_line else last_line)
      "unterminated clause (missing 0)";
  if st.header_seen then begin
    check_top st;
    let n = List.length st.clauses in
    if n <> st.nclauses then
      error ~line:st.header_line "header declares %d clauses, found %d" st.nclauses n;
    if st.show_top > st.nvars then
      error ~line:st.show_top_line "'c p show' variable %d above the header's %d"
        st.show_top st.nvars
  end;
  let cnf =
    Cnf.of_clauses ~nvars:st.nvars (List.rev_map List.rev st.clauses)
  in
  let projection =
    match List.rev st.show with [] -> None | vs -> Some vs
  in
  (cnf, projection)

let parse_channel_projected ic =
  let st = make_state () in
  let line = ref 0 in
  (try
     while true do
       let l = input_line ic in
       incr line;
       feed_line st ~line:!line l
     done
   with End_of_file -> ());
  finish st ~last_line:!line

(* Iterate the lines of a string without materialising a line list. *)
let iter_string_lines f s =
  let n = String.length s in
  let start = ref 0 in
  let line = ref 0 in
  while !start <= n do
    let stop =
      match String.index_from_opt s !start '\n' with
      | Some i -> i
      | None -> n
    in
    incr line;
    f ~line:!line (String.sub s !start (stop - !start));
    start := stop + 1
  done;
  !line

let parse_string_projected s =
  let st = make_state () in
  let last_line = iter_string_lines (fun ~line l -> feed_line st ~line l) s in
  finish st ~last_line

let parse_string s = fst (parse_string_projected s)

let parse_channel ic = fst (parse_channel_projected ic)

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse_channel ic)

let parse_file_projected path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_channel_projected ic)

let to_string cnf =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.Cnf.nvars (Cnf.nclauses cnf));
  List.iter
    (fun c ->
      Array.iter
        (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " "))
        c;
      Buffer.add_string buf "0\n")
    (List.rev cnf.Cnf.clauses);
  Buffer.contents buf

let write_file path cnf =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string cnf))
