module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate
module Sim = Ps_circuit.Sim
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace
module Sg = Solution_graph

type decision = Static | Dynamic

type variant = Sds | SdsDynamic | SdsNoMemo

type config = {
  use_memo : bool;
  decision : decision;
}

let config = function
  | Sds -> { use_memo = true; decision = Static }
  | SdsDynamic -> { use_memo = true; decision = Dynamic }
  | SdsNoMemo -> { use_memo = false; decision = Static }

let default_config = config Sds

(* Memo keys. A signature is the frontier walk as a sequence of ints
   (net × 3 + ternary code, or -1 - parity after an X-valued XOR's
   fanins) with a rolling hash of that sequence. Two
   keys are equal only when their depths and whole sequences are: the
   hash merely picks the bucket, so a collision costs a comparison and
   can never return another node's subgraph. *)
module Key = struct
  type t = { depth : int; hash : int; words : int array; len : int }

  let equal a b =
    a.hash = b.hash && a.depth = b.depth && a.len = b.len
    &&
    let rec same i = i = a.len || (a.words.(i) = b.words.(i) && same (i + 1)) in
    same 0

  let hash k =
    let h = k.hash lxor (k.depth * 0x1e3779b97f4a7c15) in
    h lxor (h lsr 29)
end

module Memo = Hashtbl.Make (Key)

let tri_code = function G.F -> 0 | G.T -> 1 | G.X -> 2

let search ?(config = default_config) ?limit ?budget ?(trace = Trace.null)
    ?prefix ~netlist ~root ~proj_nets ~solver () =
  let n = Array.length proj_nets in
  let nnets = N.num_nets netlist in
  (* The ternary simulator only reads leaves, and a net owns a single
     position: a gate or a repeated net would be enumerated wrongly. *)
  let pos_of_net = Array.make nnets (-1) in
  Array.iteri
    (fun i net ->
      if net < 0 || net >= nnets then invalid_arg "Sds.search: bad projection net";
      (match N.driver netlist net with
      | N.Input | N.Latch _ -> ()
      | N.Gate _ ->
        invalid_arg "Sds.search: projection net is not an input or latch");
      if pos_of_net.(net) >= 0 then
        invalid_arg "Sds.search: repeated projection net";
      pos_of_net.(net) <- i)
    proj_nets;
  let man = Sg.new_man ~width:n in
  let stats = Stats.create () in
  let env = Array.make nnets G.X in
  let values = Array.make nnets G.X in
  (* Justification-frontier signature: the residual solution set below a
     search node is determined by the sub-DAG of X-valued gates still
     observable from the root, together with the values of their
     immediate fanins (for an XOR, only the parity of its constant
     ones). The DFS serializes exactly that — nets whose value
     can no longer reach the root (e.g. behind a controlling input) are
     excluded, so residual-equivalent nodes produced by different
     prefixes collide in the memo table. This is the success-driven
     learning of the paper.

     As a by-product the DFS reports the first still-X projected leaf it
     meets — the [Dynamic] decision heuristic: branch on a variable the
     objective can still see (any variable outside the frontier is a
     don't-care here). With dynamic decisions the graph is a {e free}
     BDD (per-path variable orders), which is exactly the
     representation the original solver built from its search tree.

     An X-valued XOR/XNOR is parity-folded: below it the residual is
     [parity ⊕ XOR(X fanins)], so the walk descends only into its X
     fanins and then writes one word [-1 - parity] for the XOR of its
     constant fanins (net words are ≥ 0, so the two never collide).
     Prefixes that assign the taps differently but with equal parity
     then share one memo entry. The constant fanins are not marked
     visited, so another path that reaches one still serializes it.

     The walk visits each net at most once and writes one extra word
     per X-valued XOR, so [nnets + xor gates] words always suffice; the
     buffer is shared by every node of the recursion. *)
  let visited = Array.make nnets (-1) in
  let visit_epoch = ref 0 in
  let n_xors = ref 0 in
  for net = 0 to nnets - 1 do
    match N.driver netlist net with
    | N.Gate ((G.Xor | G.Xnor), _) -> incr n_xors
    | _ -> ()
  done;
  let sig_words = Array.make (nnets + !n_xors) 0 in
  let sig_len = ref 0 in
  let sig_hash = ref 0 in
  let candidate = ref (-1) in
  let push w =
    sig_words.(!sig_len) <- w;
    incr sig_len;
    sig_hash := (!sig_hash lxor w) * 0x100000001b3
  in
  let rec mark epoch net =
    if visited.(net) <> epoch then begin
      visited.(net) <- epoch;
      let v = values.(net) in
      push ((net * 3) + tri_code v);
      if v = G.X then
        match N.driver netlist net with
        | N.Gate ((G.Xor | G.Xnor), fanins) ->
          let parity = ref 0 in
          for i = 0 to Array.length fanins - 1 do
            match values.(fanins.(i)) with
            | G.X -> mark epoch fanins.(i)
            | G.T -> parity := !parity lxor 1
            | G.F -> ()
          done;
          push (-1 - !parity)
        | N.Gate (_, fanins) ->
          for i = 0 to Array.length fanins - 1 do
            mark epoch fanins.(i)
          done
        | N.Input | N.Latch _ ->
          if !candidate = -1 && pos_of_net.(net) >= 0 then candidate := net
    end
  in
  let signature () =
    incr visit_epoch;
    sig_len := 0;
    sig_hash := 0;
    candidate := -1;
    mark !visit_epoch root
  in
  (* Static keys include the depth (the branch variable is a function of
     the depth); dynamic keys are the signature alone (the branch
     variable is a function of the signature), which shares subgraphs
     across depths too. The table starts at one bucket per net, the
     size of the signature buffer; it grows with the search. *)
  let memo : Sg.t Memo.t = Memo.create nnets in
  let assumption_stack = ref [] in
  let n_search_nodes = ref 0 in
  let n_memo_hits = ref 0 in
  let n_ternary = ref 0 in
  let n_sat_calls = ref 0 in
  let n_model_hits = ref 0 in
  let n_unsat_prunes = ref 0 in
  (* Anytime interruption: once [stop] is set, every pending subtree
     resolves to the 0-terminal without further work, so the recursion
     unwinds into a {e valid under-approximation} — the paths completed
     so far — instead of raising. Truncated nodes are never memoized. *)
  let stop : Run.stopped option ref = ref None in
  (* Paths closed so far = committed cubes; drives the uniform [limit]. *)
  let paths_done = ref 0.0 in
  let commit node = paths_done := !paths_done +. Sg.count_paths node in
  let over_limit () =
    match limit with
    | None -> false
    | Some l -> !paths_done >= float_of_int l
  in
  let check_stop () =
    if !stop = None then begin
      (match budget with
      | Some b ->
        (match Budget.check b with
        | Some s -> stop := Some (s :> Run.stopped)
        | None -> ())
      | None -> ());
      if !stop = None && over_limit () then stop := Some `CubeLimit
    end;
    !stop <> None
  in
  (* The model of the last [Sat] answer satisfies the clauses and every
     assumption of that call, and SDS never adds a clause. So a node
     whose whole assumption stack the model satisfies is satisfiable,
     and needs no solver call. *)
  let last_model = ref [||] in
  let rec model_satisfies = function
    | [] -> true
    | l :: rest ->
      let v = Lit.var l in
      v < Array.length !last_model
      && (!last_model).(v) = Lit.sign l
      && model_satisfies rest
  in
  (* [satisfiable ()] decides F ∧ prefix. An [Unknown] answer sets
     [stop] and reads as unsatisfiable, so the subtree resolves to the
     0-terminal. *)
  let satisfiable () =
    if Array.length !last_model > 0 && model_satisfies !assumption_stack then begin
      incr n_model_hits;
      true
    end
    else begin
      incr n_sat_calls;
      (* outermost first, so consecutive probes share the solver's
         assumption levels *)
      match
        Solver.solve ~assumptions:(List.rev !assumption_stack) ?budget ~trace
          solver
      with
      | Solver.Sat ->
        last_model := Solver.model solver;
        true
      | Solver.Unsat ->
        incr n_unsat_prunes;
        false
      | Solver.Unknown ->
        ignore (check_stop ());
        if !stop = None then
          stop := Some (Run.stopped_of_budget budget ~default:`Cancelled);
        false
    end
  in
  let branch net k recurse =
    let pos = pos_of_net.(net) in
    env.(net) <- G.F;
    assumption_stack := Lit.neg net :: !assumption_stack;
    let lo = recurse (k + 1) in
    commit lo;
    env.(net) <- G.T;
    assumption_stack := Lit.pos net :: List.tl !assumption_stack;
    let hi = recurse (k + 1) in
    commit hi;
    env.(net) <- G.X;
    assumption_stack := List.tl !assumption_stack;
    (* The parent's paths are exactly lo's + hi's, both already
       committed — withdraw them so the ancestors' commits don't double
       count. *)
    paths_done := !paths_done -. Sg.count_paths lo -. Sg.count_paths hi;
    Sg.mk man ~level:pos ~lo ~hi
  in
  let rec go k =
    if check_stop () then Sg.zero man
    else begin
      incr n_search_nodes;
      Sim.eval3_into netlist ~env ~values;
      match values.(root) with
      | G.T ->
        incr n_ternary;
        Sg.one man
      | G.F ->
        incr n_ternary;
        Sg.zero man
      | G.X ->
        if config.use_memo || config.decision = Dynamic then signature ();
        let branch_net =
          match config.decision with
          | Static -> if k = n then -1 else proj_nets.(k)
          | Dynamic -> !candidate
        in
        let key =
          { Key.depth = (match config.decision with Static -> k | Dynamic -> -1);
            hash = !sig_hash; words = sig_words; len = !sig_len }
        in
        let cached = if config.use_memo then Memo.find_opt memo key else None in
        (match cached with
        | Some node ->
          incr n_memo_hits;
          if not (Trace.is_null trace) then
            Trace.emit trace (Trace.Memo_hit { depth = k; hits = !n_memo_hits });
          node
        | None ->
          (* The recursion reuses [sig_words]: copy this node's key out
             before descending. *)
          let key =
            if config.use_memo then
              Some { key with words = Array.sub sig_words 0 key.len }
            else None
          in
          let node =
            if branch_net = -1 then
              (* No projected variable can influence the objective anymore:
                 the remaining question is purely over the unprojected
                 inputs — one satisfiability check decides the subtree. *)
              if satisfiable () then Sg.one man else Sg.zero man
            else if not (satisfiable ()) then Sg.zero man
            else branch branch_net k go
          in
          (* A subtree finished under an active stop is truncated:
             caching it would poison complete reruns of the same
             signature. *)
          (match key with
          | Some key when !stop = None -> Memo.add memo key node
          | _ -> ());
          node)
    end
  in
  (* A guiding-path prefix confines the whole search to one disjoint
     subcube of the projection space: the prefix positions are seeded
     into the ternary environment and the assumption stack exactly as if
     [branch] had decided them, and the recursion starts below them. The
     returned graph therefore only holds paths over the remaining
     positions — {!Parallel} re-attaches the prefix at merge time. *)
  let start_depth =
    match prefix with
    | None -> 0
    | Some p ->
      if Cube.width p <> n then invalid_arg "Sds.search: prefix width mismatch";
      let lits = Cube.to_list p in
      List.iteri
        (fun i (pos, _) ->
          if pos <> i then
            invalid_arg
              "Sds.search: prefix must fix a contiguous run of leading \
               positions")
        lits;
      List.iter
        (fun (pos, v) ->
          let net = proj_nets.(pos) in
          env.(net) <- (if v then G.T else G.F);
          assumption_stack :=
            (if v then Lit.pos net else Lit.neg net) :: !assumption_stack)
        lits;
      List.length lits
  in
  let graph = go start_depth in
  let stopped = match !stop with Some s -> s | None -> `Complete in
  Stats.add stats "search_nodes" !n_search_nodes;
  Stats.add stats "memo_hits" !n_memo_hits;
  Stats.add stats "ternary_decides" !n_ternary;
  Stats.add stats "sat_calls" !n_sat_calls;
  Stats.add stats "model_hits" !n_model_hits;
  Stats.add stats "unsat_prunes" !n_unsat_prunes;
  Stats.add stats "graph_nodes" (Sg.size graph);
  Stats.merge ~into:stats (Solver.stats solver);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name stopped });
  let cubes = Sg.cubes graph in
  { Run.cubes; witnesses = None; graph = Some graph; stats; stopped }
