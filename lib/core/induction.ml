module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module U = Ps_circuit.Unroll
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit

type outcome =
  | Proved of int
  | Falsified of Bmc.counterexample
  | Unknown of int

(* Step case at [k]: SAT? P(s_0..s_{k-1}) ∧ ¬P(s_k) with optional
   pairwise state distinctness. UNSAT = inductive. *)
let step_holds circuit ~bad ~unique_states k =
  let unrolled = U.unroll circuit ~k in
  let b = B.of_netlist unrolled.U.netlist in
  let bad_at t = Bmc.dnf_block b unrolled.U.state_at.(t) bad (Printf.sprintf "_b%d_" t) in
  let good_frames =
    List.init k (fun t -> B.not_ b ~name:(Printf.sprintf "_good%d" t) (bad_at t))
  in
  let conjuncts = ref (bad_at k :: good_frames) in
  if unique_states then begin
    let nstate = Array.length unrolled.U.state0 in
    for i = 0 to k do
      for j = i + 1 to k do
        let diff_bits =
          List.init nstate (fun x ->
              B.xor_ b
                [ unrolled.U.state_at.(i).(x); unrolled.U.state_at.(j).(x) ])
        in
        conjuncts := B.or_ b ~name:(Printf.sprintf "_ne_%d_%d" i j) diff_bits
                     :: !conjuncts
      done
    done
  end;
  let top = B.and_ b ~name:"_step" !conjuncts in
  B.output b top;
  let net = B.finalize b in
  let cone = N.cone net [ top ] in
  let cnf = Ps_circuit.Tseitin.encode ~cone net in
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  ignore (Solver.add_clause s [ Lit.pos top ]);
  Solver.solve s = Solver.Unsat

let prove ?(unique_states = false) circuit ~init ~bad ~max_k =
  if max_k < 1 then invalid_arg "Induction.prove: max_k >= 1";
  let rec loop k =
    if k > max_k then Unknown max_k
    else begin
      (* base case up to k *)
      match Bmc.check circuit ~init ~bad ~max_depth:k with
      | Some cex -> Falsified cex
      | None -> if step_holds circuit ~bad ~unique_states k then Proved k else loop (k + 1)
    end
  in
  loop 1
