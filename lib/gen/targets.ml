module Cube = Ps_allsat.Cube
module R = Ps_util.Rng

type t = Cube.t list

let value ~bits k =
  if bits < 1 || k < 0 || (bits < 62 && k >= 1 lsl bits) then
    invalid_arg "Targets.value";
  [ Cube.of_assignment (Array.init bits (fun i -> (k lsr i) land 1 = 1)) ]

let all_ones ~bits = [ Cube.of_assignment (Array.make bits true) ]
let all_zeros ~bits = [ Cube.of_assignment (Array.make bits false) ]

let bit_set ~bits i v =
  if i < 0 || i >= bits then invalid_arg "Targets.bit_high/low";
  [ Cube.set (Cube.make bits) i v ]

let bit_high ~bits i = bit_set ~bits i Cube.True
let bit_low ~bits i = bit_set ~bits i Cube.False
let upper_half ~bits = bit_high ~bits (bits - 1)

let random ~bits ~ncubes ~density rng =
  if ncubes < 1 then invalid_arg "Targets.random: ncubes >= 1";
  List.init ncubes (fun _ ->
      let c = ref (Cube.make bits) in
      for i = 0 to bits - 1 do
        if R.float rng < density then
          c := Cube.set !c i (if R.bool rng then Cube.True else Cube.False)
      done;
      !c)

let of_strings rows =
  if rows = [] then invalid_arg "Targets.of_strings: empty";
  List.map Cube.of_string rows

let of_expr ~bits ~names expr_text =
  if Array.length names <> bits then invalid_arg "Targets.of_expr: names width";
  let e = Ps_circuit.Expr.parse expr_text in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  List.iter
    (fun v ->
      if not (Hashtbl.mem index v) then
        invalid_arg (Printf.sprintf "Targets.of_expr: unknown state bit %S" v))
    (Ps_circuit.Expr.vars e);
  let module B = Ps_bdd.Bdd in
  let man = B.new_man ~nvars:(max bits 1) in
  let rec build = function
    | Ps_circuit.Expr.Const b -> if b then B.one man else B.zero man
    | Ps_circuit.Expr.Var v -> B.var man (Hashtbl.find index v)
    | Ps_circuit.Expr.Not x -> B.bnot (build x)
    | Ps_circuit.Expr.And (x, y) -> B.band (build x) (build y)
    | Ps_circuit.Expr.Or (x, y) -> B.bor (build x) (build y)
    | Ps_circuit.Expr.Xor (x, y) -> B.bxor (build x) (build y)
  in
  let f = build e in
  if B.is_zero f then invalid_arg "Targets.of_expr: expression denotes the empty set";
  Ps_allsat.Cube_set.of_bdd f ~width:bits

let parse ~bits ~names spec =
  let prefixed p = String.starts_with ~prefix:p spec in
  let rest p = String.sub spec (String.length p) (String.length spec - String.length p) in
  match spec with
  | "all-ones" -> all_ones ~bits
  | "all-zeros" -> all_zeros ~bits
  | "upper-half" -> upper_half ~bits
  | _ when prefixed "value:" -> (
    match int_of_string_opt (rest "value:") with
    | Some k -> value ~bits k
    | None ->
      failwith
        (Printf.sprintf "Targets.parse: bad value in %S (expected value:<integer>)"
           spec))
  | _ when prefixed "expr:" ->
    if rest "expr:" = "" then
      failwith
        "Targets.parse: empty expression (expected expr:<boolean expression \
         over the state bit names>)";
    of_expr ~bits ~names (rest "expr:")
  | _ ->
    let t = of_strings (String.split_on_char ',' spec) in
    List.iter
      (fun c ->
        if Cube.width c <> bits then
          failwith
            (Printf.sprintf
               "Targets.parse: cube width %d but circuit has %d state bits"
               (Cube.width c) bits))
      t;
    t

let mem t bits = List.exists (fun c -> Cube.contains c bits) t

let pp ppf t =
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " +@ ")
       Cube.pp)
    t
