type stopped =
  [ `Complete
  | `CubeLimit
  | `Deadline
  | `Conflicts
  | `Decisions
  | `Propagations
  | `Cancelled ]

type t = {
  cubes : Cube.t list;
  graph : Solution_graph.t option;
  stats : Ps_util.Stats.t;
  stopped : stopped;
}

type sink = {
  on_cube : Cube.t -> unit;
  on_shard : prefix:string -> cubes:Cube.t list -> unit;
}

let sink_of_fun on_cube = { on_cube; on_shard = (fun ~prefix:_ ~cubes:_ -> ()) }

let emit_cube sink c =
  match sink with None -> () | Some s -> s.on_cube c

let emit_cubes sink cubes =
  match sink with None -> () | Some s -> List.iter s.on_cube cubes

let solutions r =
  List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 r.cubes

let complete r = r.stopped = `Complete

let stopped_name : stopped -> string = function
  | `Complete -> "complete"
  | `CubeLimit -> "cube_limit"
  | #Ps_util.Budget.stop as s -> Ps_util.Budget.stop_name s

let pp_stopped ppf s = Format.pp_print_string ppf (stopped_name s)

let stopped_of_budget budget ~default =
  match budget with
  | None -> default
  | Some b ->
    (match Ps_util.Budget.stopped b with
    | Some s -> (s :> stopped)
    | None -> default)
