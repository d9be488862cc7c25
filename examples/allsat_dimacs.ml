(* Projected all-SAT over a DIMACS formula.

   The all-solutions layer is not preimage-specific: given any CNF and a
   projection set, it enumerates the projected solutions. This example
   feeds a small crafted DIMACS instance (three exactly-one groups)
   through the blocking enumerator and accumulates the result in
   a solution graph to show the compression.

   Pass a path to a .cnf file to use your own formula; the projection is
   then the first min(12, nvars) variables. With [--jobs N] the
   enumeration is sharded over guiding paths and run on N worker
   domains — the merged solution set is the same, in an order that is
   deterministic for every N.

   Run with: dune exec examples/allsat_dimacs.exe [-- file.cnf] [-- --jobs 4] *)

module A = Ps_allsat

let builtin =
  {|c exactly-one in each of three independent groups of three: 27 models
p cnf 9 12
1 2 3 0
-1 -2 0
-1 -3 0
-2 -3 0
4 5 6 0
-4 -5 0
-4 -6 0
-5 -6 0
7 8 9 0
-7 -8 0
-7 -9 0
-8 -9 0
|}

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs, args =
    let rec go jobs acc = function
      | "--jobs" :: n :: rest -> go (int_of_string n) acc rest
      | a :: rest -> go jobs (a :: acc) rest
      | [] -> (jobs, List.rev acc)
    in
    go 1 [] args
  in
  let cnf =
    match args with
    | file :: _ -> Ps_sat.Dimacs.parse_file file
    | [] -> Ps_sat.Dimacs.parse_string builtin
  in
  Format.printf "formula: %d variables, %d clauses@." cnf.Ps_sat.Cnf.nvars
    (Ps_sat.Cnf.nclauses cnf);
  let width = min 12 cnf.Ps_sat.Cnf.nvars in
  let proj = A.Project.of_vars (Array.init width Fun.id) in
  let solver = Ps_sat.Solver.create () in
  if not (Ps_sat.Solver.load solver cnf) then begin
    Format.printf "formula is trivially unsatisfiable@.";
    exit 0
  end;
  let r =
    if jobs <= 1 then A.Blocking.enumerate ~limit:100_000 solver proj
    else
      (* Guiding-path sharding: each shard gets a fresh solver with the
         shard prefix added as unit clauses; shards cannot overlap, so
         the merged cubes cover exactly the sequential solution set. *)
      A.Parallel.run ~jobs ~limit:100_000 ~width
        ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
          let s = Ps_sat.Solver.create () in
          if not (Ps_sat.Solver.load s cnf) then
            { A.Run.cubes = []; witnesses = None; graph = None;
              stats = Ps_util.Stats.create (); stopped = `Complete }
          else begin
            List.iter
              (fun lit -> ignore (Ps_sat.Solver.add_clause s [ lit ]))
              (A.Project.lits_of_cube proj prefix);
            A.Blocking.enumerate ?limit ?budget ~trace s proj
          end)
        ()
  in
  Format.printf "projected solutions (first %d vars): %d%s, %d SAT calls%s@."
    width (List.length r.A.Run.cubes)
    (if A.Run.complete r then "" else " (limit hit)")
    (A.Blocking.sat_calls r)
    (if jobs > 1 then Printf.sprintf " (%d worker domains)" jobs else "");
  let f = A.Cube_set.to_bdd (Ps_bdd.Bdd.new_man ~nvars:width) r.A.Run.cubes in
  Format.printf "as a BDD: %d nodes for %g solutions@."
    (Ps_bdd.Bdd.size f)
    (Ps_bdd.Bdd.count_models ~nvars:width f);
  Format.printf "@.solutions:@.";
  List.iteri
    (fun i c -> if i < 30 then Format.printf "  %a@." A.Cube.pp c)
    r.A.Run.cubes;
  if List.length r.A.Run.cubes > 30 then Format.printf "  ...@."
