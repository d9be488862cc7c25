module Cube = Ps_allsat.Cube
module Project = Ps_allsat.Project
module Witness = Ps_allsat.Witness
module Solver = Ps_sat.Solver
module Cnf = Ps_sat.Cnf
module Lit = Ps_sat.Lit
module Trace = Ps_util.Trace

type report = {
  cubes : int;
  sound : bool;
  unsound : Cube.t list;
  missing : Cube.t option;
  sat_calls : int;
  witnessed : int;
  propagations : int;
}

let complete r = r.missing = None
let ok r = r.sound && complete r

let certifiable (r : Store.recovered) =
  if r.torn then Some "log has a torn/corrupt tail"
  else if r.dropped_cubes > 0 then
    Some
      (Printf.sprintf "log has %d cube(s) after the last checkpoint"
         r.dropped_cubes)
  else if r.last.Store.kind <> "final" then
    Some "log was never finalized (no final checkpoint)"
  else if not r.last.Store.complete then
    Some "final checkpoint does not claim a complete enumeration"
  else if List.length r.Store.cubes <> r.last.Store.cubes then
    Some
      (Printf.sprintf
         "final checkpoint records %d cubes but the log holds %d"
         r.last.Store.cubes
         (List.length r.Store.cubes))
  else None

(* Completeness by a descent over the cover (docs/ALGORITHMS.md §12):
   a projected solution outside every cube, or [None].

   Splits follow [order]: the positions sorted by how many cubes fix
   them, most first (ties by index, so a minterm log keeps its own
   order). [live] pairs every cube that intersects [region] with the
   rank in [order] of its first fixed position past the last split.
   Splits always take the smallest such rank, so a live cube fixes no
   position ranked up to the last split that [region] leaves free, and
   it subsumes [region] exactly when it fixes nothing past the last
   split. A region no cube reaches is a gap: it must be UNSAT under its
   literals, and the core of that call — a cube proven empty — closes
   every later gap it subsumes without a call. *)
let find_missing solver proj cubes sat_calls =
  let exception Missing of Cube.t in
  let width = Project.width proj in
  let vars = proj.Project.vars in
  let fixes = Array.make width 0 in
  List.iter
    (fun c ->
      List.iter (fun (i, _) -> fixes.(i) <- fixes.(i) + 1) (Cube.to_list c))
    cubes;
  let order =
    Array.of_list
      (List.stable_sort
         (fun i j -> compare fixes.(j) fixes.(i))
         (List.init width Fun.id))
  in
  (* rank in [order] of the first position [c] fixes at rank [from] or
     later ([width] if none) *)
  let next_fixed c from =
    let rec go k =
      if k >= width || Cube.get c order.(k) <> Cube.DontCare then k
      else go (k + 1)
    in
    go from
  in
  (* the gap's unsat core as a cube: proven empty, and subsuming the gap *)
  let gap region =
    incr sat_calls;
    (* assumed in split order, so the core leans on the literals the
       region shares with the later gaps *)
    let assumptions =
      Array.fold_right
        (fun p acc ->
          match Cube.get region p with
          | Cube.DontCare -> acc
          | v -> Lit.make vars.(p) (v = Cube.True) :: acc)
        order []
    in
    match Solver.solve ~assumptions solver with
    | Solver.Unsat ->
      let core = Solver.unsat_core solver in
      List.fold_left
        (fun c (i, v) ->
          if List.mem (Lit.make vars.(i) v) core then c
          else Cube.set c i Cube.DontCare)
        region (Cube.to_list region)
    | Solver.Sat ->
      raise (Missing (Project.cube_of_model proj (Solver.model solver)))
    | Solver.Unknown -> assert false (* no budget *)
  in
  (* The cubes proven empty inside [region]. Those proven in the first
     half of a split go on into the second half as live cubes, like
     logged ones: a core fixes only positions its gap fixes, so it
     reaches the second half exactly when it leaves the split position
     free. *)
  let rec descend region live =
    if live = [] then [ gap region ]
    else if List.exists (fun (_, n) -> n = width) live then []
    else begin
      let k = List.fold_left (fun m (_, n) -> min m n) width live in
      let p = order.(k) in
      let branch v proven =
        let carried =
          List.filter_map
            (fun c ->
              if Cube.get c p = Cube.DontCare then
                Some (c, next_fixed c (k + 1))
              else None)
            proven
        in
        let child =
          List.filter_map
            (fun ((c, n) as e) ->
              if n > k then Some e
              else if Cube.get c p = v then Some (c, next_fixed c (k + 1))
              else None)
            live
        in
        descend (Cube.set region p v) (carried @ child)
      in
      let proven0 = branch Cube.False [] in
      proven0 @ branch Cube.True proven0
    end
  in
  match
    descend (Cube.make width) (List.map (fun c -> (c, next_fixed c 0)) cubes)
  with
  | _ -> None
  | exception Missing m -> Some m

(* Soundness of a cube with a witness, by one pass over the clauses
   (docs/ALGORITHMS.md §12): [check cube witness] holds when every clause
   has a literal true under the cube's fixed literals or the witness.
   That holds for every minterm of the cube, whatever its free positions
   say. A variable at several positions counts as fixed only if all of
   them fix it alike: a cube that leaves one of them free, or fixes them
   apart, holds minterms no assignment projects to. A witness of the
   wrong length fails. *)
let witness_check (cnf : Cnf.t) (proj : Project.t) wvars =
  let vars = proj.Project.vars in
  let nvars = Array.fold_left (fun n v -> max n (v + 1)) cnf.Cnf.nvars vars in
  let nw = Array.length wvars in
  let occurrences = Array.make nvars 0 in
  Array.iter (fun v -> occurrences.(v) <- occurrences.(v) + 1) vars;
  let clauses = Array.of_list cnf.Cnf.clauses in
  (* 1 true, 0 false, -1 unassigned *)
  let value = Array.make nvars (-1) in
  let fix v b = if value.(v) < 0 then (value.(v) <- b; true) else value.(v) = b in
  let satisfied clause =
    let rec go k =
      k < Array.length clause
      && (value.(Lit.var clause.(k)) = Bool.to_int (Lit.sign clause.(k))
         || go (k + 1))
    in
    go 0
  in
  fun cube witness ->
    String.length witness = Witness.bytes nw
    && begin
      Array.iter (fun v -> value.(v) <- -1) vars;
      for i = 0 to nw - 1 do
        value.(wvars.(i)) <- Bool.to_int (Witness.get witness i)
      done;
      let fixed = ref true in
      Array.iteri
        (fun p v ->
          match Cube.get cube p with
          | Cube.DontCare -> if occurrences.(v) > 1 then fixed := false
          | b -> if not (fix v (Bool.to_int (b = Cube.True))) then fixed := false)
        vars;
      !fixed && Array.for_all satisfied clauses
    end

let run ?(trace = Trace.null) ~cnf (r : Store.recovered) =
  let meta = r.Store.meta in
  if Array.length meta.Store.vars = 0 then
    invalid_arg "Verify.run: log meta carries no projection variables";
  if Array.length meta.Store.vars <> meta.Store.width then
    invalid_arg "Verify.run: projection size differs from cube width";
  let proj = Project.of_vars meta.Store.vars in
  let solver = Solver.create () in
  let root_ok = Solver.load solver cnf in
  Array.iter (fun v -> Solver.ensure_vars solver (v + 1)) meta.Store.vars;
  let sat_calls = ref 0 in
  let witnessed = ref 0 in
  let unsound = ref [] in
  (* Soundness. A cube with a witness is certified by [witness_check];
     over a projection that covers every variable, every cube has the
     empty witness. A minterm without one must be a solution: one SAT
     call under its literals, as assumptions that keep the solver
     reusable across probes and for the completeness check below (a
     root-unsat formula fails them all). A wider cube without a witness
     cannot be certified. *)
  let wvars = Witness.vars proj ~nvars:cnf.Cnf.nvars in
  let check = witness_check cnf proj wvars in
  List.iter2
    (fun c witness ->
      let witness = if witness = None && wvars = [||] then Some "" else witness in
      let is_sound =
        match witness with
        | Some w ->
          incr witnessed;
          check c w
        | None ->
          Cube.num_free c = 0
          && root_ok
          && (incr sat_calls;
              Solver.solve ~assumptions:(Project.lits_of_cube proj c) solver
              = Solver.Sat)
      in
      if not is_sound then unsound := c :: !unsound)
    r.Store.cubes r.Store.witnesses;
  (* Completeness: the solver holds the formula's clauses only. *)
  let missing =
    if root_ok then find_missing solver proj r.Store.cubes sat_calls else None
  in
  let report =
    {
      cubes = List.length r.Store.cubes;
      sound = !unsound = [];
      unsound = List.rev !unsound;
      missing;
      sat_calls = !sat_calls;
      witnessed = !witnessed;
      propagations = Ps_util.Stats.get (Solver.stats solver) "propagations";
    }
  in
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Store_verified
         { cubes = report.cubes; witnessed = report.witnessed;
           sound = report.sound; complete = complete report });
  report
