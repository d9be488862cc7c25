(* All-solutions test generation: enumerate EVERY input vector that
   detects a stuck-at fault.

   Classic EDA use of all-SAT beyond preimage computation: build a miter
   between the good circuit and a faulty copy (one net stuck at 0); the
   miter output is 1 exactly on the detecting vectors. The all-solutions
   engines then produce the complete test set — the blocking engine as
   explicit vectors, the SDS engine as a compact solution graph.

   Run with: dune exec examples/testgen.exe *)

module B = Ps_circuit.Builder
module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate
module A = Ps_allsat

(* A small carry-lookahead-flavoured combinational block: 2x4-bit inputs,
   a few reconvergent layers. *)
let build_good b ins =
  let a = Array.sub ins 0 4 and c = Array.sub ins 4 4 in
  let g = Array.init 4 (fun i -> B.and_ b [ a.(i); c.(i) ]) in
  let p = Array.init 4 (fun i -> B.xor_ b [ a.(i); c.(i) ]) in
  let carry = ref g.(0) in
  let sums = ref [ p.(0) ] in
  for i = 1 to 3 do
    sums := B.xor_ b [ p.(i); !carry ] :: !sums;
    carry := B.or_ b [ g.(i); B.and_ b [ p.(i); !carry ] ]
  done;
  (* Output: carry-out XOR parity of sums. *)
  let parity = B.xor_ b !sums in
  (B.xor_ b ~name:"good_out" [ parity; !carry ], p)

(* The faulty copy: same structure, but propagate gate p1 stuck-at-0. *)
let build_faulty b ins =
  let a = Array.sub ins 0 4 and c = Array.sub ins 4 4 in
  let g = Array.init 4 (fun i -> B.and_ b [ a.(i); c.(i) ]) in
  let stuck = B.const0 b ~name:"fault_s_a_0" () in
  let p =
    Array.init 4 (fun i ->
        if i = 1 then stuck else B.xor_ b [ a.(i); c.(i) ])
  in
  let carry = ref g.(0) in
  let sums = ref [ p.(0) ] in
  for i = 1 to 3 do
    sums := B.xor_ b [ p.(i); !carry ] :: !sums;
    carry := B.or_ b [ g.(i); B.and_ b [ p.(i); !carry ] ]
  done;
  let parity = B.xor_ b !sums in
  B.xor_ b ~name:"faulty_out" [ parity; !carry ]

let () =
  let b = B.create () in
  let ins = Array.init 8 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let good, _ = build_good b ins in
  let faulty = build_faulty b ins in
  let miter = B.xor_ b ~name:"miter" [ good; faulty ] in
  B.output b miter;
  let circuit = B.finalize b in
  Format.printf "Miter: %a@.@." N.pp circuit;

  let proj_nets = Array.map Fun.id ins in
  let proj =
    A.Project.make ~vars:proj_nets
      ~names:(Array.map (N.name circuit) proj_nets)
  in
  let cnf = Ps_circuit.Tseitin.encode circuit in
  let mk_solver () =
    let s = Ps_sat.Solver.create () in
    ignore (Ps_sat.Solver.load s cnf);
    ignore (Ps_sat.Solver.add_clause s [ Ps_sat.Lit.pos miter ]);
    s
  in

  (* Complete test set, three ways. *)
  let r_min = A.Blocking.enumerate (mk_solver ()) proj in
  Format.printf "blocking (minterms): %d detecting vectors, %d SAT calls@."
    (List.length r_min.A.Run.cubes) (A.Blocking.sat_calls r_min);

  let lift = A.Lifting.lift_mask circuit ~root:miter ~proj_nets in
  let r_lift = A.Blocking.enumerate ~lift (mk_solver ()) proj in
  Format.printf "blocking + lifting:  %d cubes, %d SAT calls@."
    (List.length r_lift.A.Run.cubes) (A.Blocking.sat_calls r_lift);

  let r_sds =
    A.Sds.search ~netlist:circuit ~root:miter ~proj_nets ~solver:(mk_solver ()) ()
  in
  let sds_graph =
    match r_sds.A.Run.graph with Some g -> g | None -> assert false
  in
  Format.printf "sds solution graph:  %d nodes, %g vectors@.@."
    (A.Solution_graph.size sds_graph)
    (A.Solution_graph.count_models sds_graph);

  (* Agreement. *)
  let same a b = A.Cube_set.equal_union 8 a.A.Run.cubes b.A.Run.cubes in
  Format.printf "engines agree: %b@." (same r_min r_lift && same r_min r_sds);

  (* A few sample tests, most compact first. *)
  let cubes =
    List.sort
      (fun a b -> compare (A.Cube.num_fixed a) (A.Cube.num_fixed b))
      r_lift.A.Run.cubes
  in
  Format.printf "@.Sample compact tests (x0..x7, '-' = don't care):@.";
  List.iteri
    (fun i c -> if i < 5 then Format.printf "  %a@." A.Cube.pp c)
    cubes
