module B = Ps_bdd.Bdd
module Tr = Ps_circuit.Transition
module Cube = Ps_allsat.Cube

(* Variable layout: present state 0..n-1, inputs n..n+m-1, next state
   n+m..n+m+n-1. Sets live on the present-state block. *)
type t = {
  bman : B.man;
  n : int;
  m : int;
  relation : B.t;           (* ∧ᵢ s'ᵢ ↔ δᵢ(s, x) *)
  rename_next_to_cur : B.t array;  (* compose map s' -> s *)
  quantified : int list;    (* s ∪ x variables *)
}

let create circuit =
  let tr = Tr.of_netlist circuit in
  let n = Array.length tr.Tr.state_nets in
  let m = Array.length tr.Tr.input_nets in
  if n = 0 then invalid_arg "Image.create: circuit has no latches";
  let bman = B.new_man ~nvars:((2 * n) + m) in
  let deltas =
    Bdd_engine.next_state_functions bman tr
      ~state_vars:(Array.init n Fun.id)
      ~input_vars:(Array.init m (fun j -> n + j))
  in
  let relation = ref (B.one bman) in
  Array.iteri
    (fun i delta ->
      relation := B.band !relation (B.bxnor (B.var bman (n + m + i)) delta))
    deltas;
  let rename_next_to_cur =
    Array.init ((2 * n) + m) (fun v ->
        if v >= n + m then B.var bman (v - n - m) else B.var bman v)
  in
  {
    bman;
    n;
    m;
    relation = !relation;
    rename_next_to_cur;
    quantified = List.init (n + m) Fun.id;
  }

let man t = t.bman
let nstate t = t.n

let of_cubes t cubes =
  List.fold_left
    (fun acc c -> B.bor acc (B.cube t.bman (Cube.to_list c)))
    (B.zero t.bman) cubes

let image t s =
  (* ∃ s,x . relation ∧ S(s), then rename s' to s *)
  let over_next = B.and_exists t.quantified t.relation s in
  B.compose over_next t.rename_next_to_cur

type reach_result = {
  reached : B.t;
  steps : int;
  total_states : float;
  fixpoint : bool;
}

let forward_reach ?(max_steps = 1000) t ~init =
  let reached = ref (of_cubes t init) in
  let frontier = ref !reached in
  let steps = ref 0 in
  let fixpoint = ref false in
  while (not !fixpoint) && !steps < max_steps do
    if B.is_zero !frontier then fixpoint := true
    else begin
      incr steps;
      let img = image t !frontier in
      let fresh = B.band img (B.bnot !reached) in
      reached := B.bor !reached fresh;
      frontier := fresh;
      if B.is_zero fresh then fixpoint := true
    end
  done;
  {
    reached = !reached;
    steps = !steps;
    total_states =
      B.count_models ~nvars:(B.nvars t.bman) !reached
      /. (2.0 ** float_of_int (t.m + t.n));
    fixpoint = !fixpoint;
  }

let intersects _t a b = not (B.is_zero (B.band a b))
