module Budget = Ps_util.Budget
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace

(* Guiding-path parallel enumeration.

   The projection space is partitioned into disjoint prefix cubes
   (guiding paths): every assignment of the first [depth] projection
   positions is one shard, and the union of the shards' solution sets is
   exactly the full solution set — no blocking clauses, no overlap, no
   coordination beyond a shared shard counter. Each shard runs an ordinary
   sequential enumeration (any engine) in its own solver instance on a
   pool of OCaml 5 domains. The partition is a function of the width
   and [split_depth] alone — never of the worker count or the
   scheduling — which is what makes merged results reproducible across
   [jobs].

   The merged cube list is deterministic: shard results are taken in
   prefix order (lexicographic, which is also enumeration order) and
   each shard's cubes are re-anchored under its prefix. *)

let guiding_paths ~width ~depth =
  if depth < 0 || depth > width then invalid_arg "Parallel.guiding_paths";
  List.init (1 lsl depth) (fun code ->
      Cube.of_string
        (String.init width (fun i ->
             if i >= depth then '-'
             else if code lsr (depth - 1 - i) land 1 = 1 then '1'
             else '0')))

(* [re_anchor ~prefix ~depth cube] writes the shard prefix back into the
   first [depth] positions of an emitted cube. Shard enumerations leave
   those positions don't-care (SDS searches below the prefix; lifting
   may drop them), and a cube is only guaranteed sound {e inside} its
   shard — re-anchoring restores both disjointness across shards and
   soundness of the lifted cubes. Positions the shard did fix always
   agree with the prefix, so overwriting is the identity there. *)
let re_anchor ~prefix ~depth cube =
  if depth = 0 then cube
  else begin
    let p = Cube.to_string prefix and c = Cube.to_string cube in
    Cube.of_string
      (String.sub p 0 depth ^ String.sub c depth (String.length c - depth))
  end

let default_split_depth width = min width 4

let run ?(jobs = 1) ?split_depth ?limit ?budget ?(trace = Trace.null) ?sink
    ~width ~run_shard () =
  if jobs < 1 then invalid_arg "Parallel.run: jobs must be >= 1";
  (match limit with
  | Some l when l < 0 -> invalid_arg "Parallel.run: negative limit"
  | _ -> ());
  let split_depth =
    match split_depth with
    | None -> default_split_depth width
    | Some d ->
      if d < 0 then invalid_arg "Parallel.run: negative split_depth";
      min d width
  in
  let trace = Trace.locked trace in
  (* The shards, in prefix order. Workers claim them through [next]; each
     slot of [results] is written by the one worker that ran the shard
     (None: dropped or failed) and read after every domain has joined. *)
  let shards = Array.of_list (guiding_paths ~width ~depth:split_depth) in
  let next = Atomic.make 0 in
  let results = Array.make (Array.length shards) None in
  let first_exn = Atomic.make None in
  (* One domain tripping the budget (or the global cube cap) flips this
     flag; every other worker drops the shards it claims from then on.
     In-flight shard runs stop on their own — they share the same
     atomic budget. *)
  let stop_requested = Atomic.make false in
  let total_cubes = Atomic.make 0 in
  let budget_tripped () =
    match budget with Some b -> Budget.check b <> None | None -> false
  in
  let is_budget_stop : Run.stopped -> bool = function
    | #Budget.stop -> true
    | `Complete | `CubeLimit -> false
  in
  let process prefix =
    if Atomic.get stop_requested || budget_tripped () then begin
      Atomic.set stop_requested true;
      None
    end
    else begin
      let shard_name = Cube.to_string prefix in
      if not (Trace.is_null trace) then
        Trace.emit trace
          (Trace.Shard_start { shard = shard_name; depth = split_depth });
      let r : Run.t = run_shard ~prefix ~limit ~budget ~trace in
      let n_cubes = List.length r.Run.cubes in
      if not (Trace.is_null trace) then
        Trace.emit trace
          (Trace.Shard_done
             {
               shard = shard_name;
               cubes = n_cubes;
               conflicts = Stats.get r.Run.stats "conflicts";
               stopped = Run.stopped_name r.Run.stopped;
             });
      if is_budget_stop r.Run.stopped then Atomic.set stop_requested true;
      let total = n_cubes + Atomic.fetch_and_add total_cubes n_cubes in
      (match limit with
      | Some l when total >= l -> Atomic.set stop_requested true
      | _ -> ());
      (* Kept shards carry their cubes re-anchored under the prefix (the
         merge currency). *)
      let anchored =
        List.map (re_anchor ~prefix ~depth:split_depth) r.Run.cubes
      in
      (* Durable per-shard scratch: distinct prefixes, so concurrent
         calls from different workers never collide (see Run.sink). *)
      (match sink with
      | Some s -> s.Run.on_shard ~prefix:shard_name ~cubes:anchored
      | None -> ());
      Some (r, anchored)
    end
  in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length shards then begin
      (results.(i) <-
         try process shards.(i)
         with e ->
           ignore (Atomic.compare_and_set first_exn None (Some e));
           Atomic.set stop_requested true;
           None);
      worker ()
    end
  in
  (* The calling domain is worker 0; jobs-1 extra domains join it, so
     jobs=1 spawns nothing and runs the shards inline. *)
  let extra = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join extra;
  (match Atomic.get first_exn with Some e -> raise e | None -> ());
  (* Deterministic merge: shards in prefix order = enumeration order of
     the partition; within a shard, discovery order is preserved. *)
  let kept = List.filter_map Fun.id (Array.to_list results) in
  let n_dropped = Array.length shards - List.length kept in
  let cubes = List.concat_map snd kept in
  let truncated, cubes =
    match limit with
    | Some l when List.length cubes > l -> (true, List.filteri (fun i _ -> i < l) cubes)
    | _ -> (false, cubes)
  in
  Run.emit_cubes sink cubes;
  let stats =
    Stats.sum (List.map (fun ((r : Run.t), _) -> r.Run.stats) kept)
  in
  Stats.add stats "shards" (List.length kept);
  Stats.add stats "shards_dropped" n_dropped;
  Stats.add stats "par_jobs" jobs;
  List.iter
    (fun ((r : Run.t), _) ->
      Stats.set_max stats "shard_cubes_max" (List.length r.Run.cubes))
    kept;
  let stopped : Run.stopped =
    match (match budget with Some b -> Budget.stopped b | None -> None) with
    | Some s -> (s :> Run.stopped)
    | None ->
      if
        truncated || n_dropped > 0
        || List.exists (fun ((r : Run.t), _) -> r.Run.stopped <> `Complete) kept
      then `CubeLimit
      else `Complete
  in
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name stopped });
  { Run.cubes; graph = None; stats; stopped }
