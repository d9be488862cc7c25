module A = Ps_allsat
module Sg = A.Solution_graph
module Run = A.Run
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type method_ = Sds | SdsDynamic | SdsNoMemo | Blocking | BlockingLift

let method_name = function
  | Sds -> "sds"
  | SdsDynamic -> "sds-dynamic"
  | SdsNoMemo -> "sds-nomemo"
  | Blocking -> "blocking"
  | BlockingLift -> "blocking-lift"

let all_methods = [ Sds; SdsDynamic; SdsNoMemo; Blocking; BlockingLift ]

let sds_variant = function
  | Sds -> Some A.Sds.Sds
  | SdsDynamic -> Some A.Sds.SdsDynamic
  | SdsNoMemo -> Some A.Sds.SdsNoMemo
  | Blocking | BlockingLift -> None

type result = {
  method_ : method_;
  run : Run.t;
  solutions : float;
  n_cubes : int;
  graph_nodes : int option;
  time_s : float;
}

let cubes r = r.run.Run.cubes
let graph r = r.run.Run.graph
let stats r = r.run.Run.stats
let stopped r = r.run.Run.stopped
let complete r = Run.complete r.run

let solution_count_of_cubes = A.Cube_set.union_count

let now () = Unix.gettimeofday ()

(* Guiding-path sharding gives every shard a fresh solver for the same
   instance, confined to its [prefix] cube. The SDS engines take the
   prefix natively (ternary seeding + assumptions — unit clauses alone
   would be unsound for them, the simulator would not see them); the
   blocking engines take it as unit clauses, which also keeps each
   shard's blocking-clause database limited to its own subspace: the
   units fix the prefix bits at the root, and [Blocking] scales its
   hand-over threshold down by them while the shard's models cost at
   most one conflict each. *)
let enumerate ?prefix ?limit ?budget ?(trace = Trace.null) method_
    ~netlist ~root ~proj solver =
  let proj_nets = proj.A.Project.vars in
  match sds_variant method_ with
  | Some variant ->
    A.Sds.search
      ~config:(A.Sds.config variant)
      ?limit ?budget ~trace ?prefix ~netlist ~root ~proj_nets ~solver ()
  | None ->
    Option.iter
      (fun prefix ->
        List.iter
          (fun lit -> ignore (Ps_sat.Solver.add_clause solver [ lit ]))
          (A.Project.lits_of_cube proj prefix))
      prefix;
    let lift =
      if method_ = BlockingLift then
        Some (A.Lifting.lift_mask netlist ~root ~proj_nets)
      else None
    in
    A.Blocking.enumerate ?limit ?budget ~trace ?lift solver proj

let run ?budget ?(trace = Trace.null) ?limit ?jobs method_ instance =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Phase { engine = method_name method_; phase = "start" });
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let netlist = instance.Instance.augmented and root = instance.Instance.root in
  let proj = instance.Instance.proj in
  let r, time_s =
    match jobs with
    | Some jobs ->
      let width = A.Project.width proj in
      timed (fun () ->
          A.Parallel.run ~jobs ?limit ?budget ~trace ~width
            ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
              enumerate ~prefix ?limit ?budget ~trace method_ ~netlist ~root
                ~proj (Instance.solver instance))
            ())
    | None ->
      let solver = Instance.solver instance in
      timed (fun () ->
          enumerate ?limit ?budget ~trace method_ ~netlist ~root ~proj solver)
  in
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Phase { engine = method_name method_; phase = "done" });
  {
    method_;
    run = r;
    solutions = Run.solutions r;
    n_cubes = List.length r.Run.cubes;
    graph_nodes = Option.map Sg.size r.Run.graph;
    time_s;
  }
