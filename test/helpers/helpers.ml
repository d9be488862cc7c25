(* Shared test machinery: random circuit generators and reference oracles
   used across the per-library suites. *)

module R = Ps_util.Rng
module B = Ps_circuit.Builder
module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate

let basic_kinds = [ G.And; G.Or; G.Nand; G.Nor; G.Xor; G.Xnor; G.Not; G.Buf ]

(* Random combinational circuit: [nin] inputs, [ngates] random gates over
   the growing net pool, single output = last gate. *)
let random_comb rng ~nin ~ngates =
  let b = B.create () in
  let ins = List.init nin (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let nets = ref ins in
  let last = ref (List.hd ins) in
  for _ = 1 to ngates do
    let pool = Array.of_list !nets in
    let pick () = pool.(R.int rng (Array.length pool)) in
    let kind = R.pick rng basic_kinds in
    let arity = match kind with G.Not | G.Buf -> 1 | _ -> 1 + R.int rng 3 in
    let g = B.gate b kind (List.init arity (fun _ -> pick ())) in
    nets := g :: !nets;
    last := g
  done;
  B.output b !last;
  B.finalize b

(* Random sequential circuit with a combinational cloud feeding latches. *)
let random_seq rng ~nin ~nlatches ~ngates =
  let b = B.create () in
  let ins = List.init nin (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let latches =
    List.init nlatches (fun i -> B.latch b (Printf.sprintf "q%d" i))
  in
  let nets = ref (ins @ latches) in
  for _ = 1 to ngates do
    let pool = Array.of_list !nets in
    let pick () = pool.(R.int rng (Array.length pool)) in
    let kind = R.pick rng basic_kinds in
    let arity = match kind with G.Not | G.Buf -> 1 | _ -> 1 + R.int rng 3 in
    let g = B.gate b kind (List.init arity (fun _ -> pick ())) in
    nets := g :: !nets
  done;
  let pool = Array.of_list !nets in
  List.iter
    (fun l -> B.set_latch_data b l pool.(R.int rng (Array.length pool)))
    latches;
  B.output b pool.(Array.length pool - 1);
  B.finalize b

(* All total assignments of the circuit inputs (and latch outputs), as an
   env array ready for Sim.eval; calls [f env code]. *)
let iter_leaf_assignments n f =
  let leaves = N.inputs n @ N.latches n in
  let k = List.length leaves in
  if k > 20 then invalid_arg "Helpers.iter_leaf_assignments: too many leaves";
  let env = Array.make (N.num_nets n) false in
  for code = 0 to (1 lsl k) - 1 do
    List.iteri (fun i net -> env.(net) <- (code lsr i) land 1 = 1) leaves;
    f env code
  done

(* Random CNF formula. *)
let random_cnf rng ~nvars ~nclauses ~max_len =
  let clause () =
    let len = 1 + R.int rng max_len in
    List.init len (fun _ -> Ps_sat.Lit.make (R.int rng nvars) (R.bool rng))
  in
  Ps_sat.Cnf.of_clauses ~nvars (List.init nclauses (fun _ -> clause ()))

(* Seeded random 3-CNF: [nclauses] clauses of three literals each. *)
let random_3cnf ~seed ~nvars ~nclauses =
  let rng = R.create ~seed in
  Ps_sat.Cnf.of_clauses ~nvars
    (List.init nclauses (fun _ ->
         List.init 3 (fun _ -> Ps_sat.Lit.make (R.int rng nvars) (R.bool rng))))

(* Random expression trees over [nvars] variables, with reference
   evaluation — used to cross-check the BDD package. *)
type expr =
  | E_var of int
  | E_not of expr
  | E_and of expr * expr
  | E_or of expr * expr
  | E_xor of expr * expr

let rec random_expr rng depth nvars =
  if depth = 0 || R.int rng 4 = 0 then E_var (R.int rng nvars)
  else
    match R.int rng 4 with
    | 0 -> E_not (random_expr rng (depth - 1) nvars)
    | 1 -> E_and (random_expr rng (depth - 1) nvars, random_expr rng (depth - 1) nvars)
    | 2 -> E_or (random_expr rng (depth - 1) nvars, random_expr rng (depth - 1) nvars)
    | _ -> E_xor (random_expr rng (depth - 1) nvars, random_expr rng (depth - 1) nvars)

let rec eval_expr e a =
  match e with
  | E_var v -> a.(v)
  | E_not x -> not (eval_expr x a)
  | E_and (x, y) -> eval_expr x a && eval_expr y a
  | E_or (x, y) -> eval_expr x a || eval_expr y a
  | E_xor (x, y) -> eval_expr x a <> eval_expr y a

let rec bdd_of_expr m e =
  let module Bd = Ps_bdd.Bdd in
  match e with
  | E_var v -> Bd.var m v
  | E_not x -> Bd.bnot (bdd_of_expr m x)
  | E_and (x, y) -> Bd.band (bdd_of_expr m x) (bdd_of_expr m y)
  | E_or (x, y) -> Bd.bor (bdd_of_expr m x) (bdd_of_expr m y)
  | E_xor (x, y) -> Bd.bxor (bdd_of_expr m x) (bdd_of_expr m y)

(* Exhaustive assignments over [n] variables. *)
let iter_assignments n f =
  if n > 20 then invalid_arg "Helpers.iter_assignments: too many variables";
  let a = Array.make (max n 1) false in
  for code = 0 to (1 lsl n) - 1 do
    for v = 0 to n - 1 do
      a.(v) <- (code lsr v) land 1 = 1
    done;
    f a
  done

(* Words allocated by [f ()], net of what the [Gc.counters] calls around
   it allocate themselves. *)
let allocated_words f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let w1 = words () in
  f ();
  let w2 = words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* Alcotest wrapper for a QCheck property. *)
let qtest name ?(count = 100) arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary prop)

(* [contains hay needle]: does [needle] occur in [hay]? *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0
