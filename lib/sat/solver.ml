module Stats = Ps_util.Stats
module Vec = Ps_util.Vec
module Iheap = Ps_util.Iheap
module Luby = Ps_util.Luby
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type result = Sat | Unsat | Unknown

(* Value encoding: -1 = unassigned, 0 = false, 1 = true. *)
let v_undef = -1

let cref_undef = Arena.Cref.undef

(* All clause storage lives in the {!Arena}; everywhere below a clause
   is an [Arena.Cref.t] (an int offset). Watcher lists are flat int
   vectors of (cref, blocker) pairs: a visit whose blocker literal is
   already true never touches clause memory. Per-variable state is kept
   in plain arrays (grown in [new_var]) so the propagation inner loop is
   free of bounds checks and allocation. *)
type t = {
  mutable arena : Arena.t;               (* replaced wholesale by GC *)
  clauses : int Vec.t;                   (* problem clause refs *)
  learnts : int Vec.t;                   (* learnt clause refs *)
  mutable w_data : int array array;      (* per literal: (cref, blocker)* *)
  mutable w_size : int array;            (* per literal: live pair count *)
  mutable n_vars : int;
  mutable assigns : int array;           (* per var *)
  mutable level : int array;             (* per var *)
  mutable reason : int array;            (* per var; cref_undef = none *)
  mutable phase : bool array;            (* per var, saved polarity *)
  (* Per var: some stored clause mentions it. Only these are decided;
     the rest keep their saved phase in a model. *)
  mutable mentioned : bool array;
  activity : float array ref;            (* per var; the VSIDS heap closes over the ref *)
  mutable seen : bool array;             (* per var, scratch for analyze *)
  mutable trail : int array;             (* assigned literals in order *)
  mutable n_trail : int;
  trail_lim : int Vec.t;
  mutable qhead : int;
  order : Iheap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable max_learnts : float;
  mutable model_arr : bool array;
  mutable have_model : bool;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt : int;
  mutable n_deleted : int;
  mutable n_solve_calls : int;
  mutable n_minimized : int;
  mutable n_reduce_dbs : int;
  mutable n_gcs : int;
  mutable n_gc_words : int;
  mutable n_watch_visits : int;
  mutable n_blocker_skips : int;
  mutable n_chrono_cubes : int;
  mutable conflict_core : Lit.t list;
  (* The last [solve] call's assumptions. For every i below
     min(decision level, length), level i+1 was opened for assumption i:
     [solve] keeps the levels a new call shares with it. *)
  mutable last_assumptions : Lit.t array;
  (* Retractable clause groups: activation variable -> live crefs of the
     group's arena clauses (unit group clauses are enqueued, not stored).
     Retired groups leave the table. *)
  groups : (int, int Vec.t) Hashtbl.t;
  mutable n_groups_retired : int;
  mutable n_learnts_kept : int;
  (* Scratch for the clause normaliser: a clause's literals, in place. *)
  mutable lit_buf : int array;
  (* Transient per-call state of the CDCL loop (set on entry). *)
  mutable budget : Budget.t option;
  mutable trace : Trace.sink;
  mutable unpolled : int;                (* decisions since the last budget poll *)
  (* Backjumps and restarts stop here: the highest flipped level of an
     enumeration, 0 otherwise. *)
  mutable floor : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let restart_base = 64

let create () =
  let activity = ref [||] in
  {
    arena = Arena.create ();
    clauses = Vec.create ~dummy:cref_undef;
    learnts = Vec.create ~dummy:cref_undef;
    w_data = [||];
    w_size = [||];
    n_vars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    phase = [||];
    mentioned = [||];
    activity;
    seen = [||];
    trail = [||];
    n_trail = 0;
    trail_lim = Vec.create ~dummy:(-1);
    qhead = 0;
    order = Iheap.create ~score:(fun v -> !activity.(v));
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    max_learnts = 1000.0;
    model_arr = [||];
    have_model = false;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt = 0;
    n_deleted = 0;
    n_solve_calls = 0;
    n_minimized = 0;
    n_reduce_dbs = 0;
    n_gcs = 0;
    n_gc_words = 0;
    n_watch_visits = 0;
    n_blocker_skips = 0;
    n_chrono_cubes = 0;
    conflict_core = [];
    last_assumptions = [||];
    groups = Hashtbl.create 16;
    n_groups_retired = 0;
    n_learnts_kept = 0;
    lit_buf = Array.make 16 0;
    budget = None;
    trace = Trace.null;
    unpolled = 0;
    floor = 0;
  }

let nvars t = t.n_vars

(* Resize every per-variable array to [cap] slots. *)
let grow_vars t cap =
  let v = t.n_vars in
  let grow_int a init =
    let a' = Array.make cap init in
    Array.blit a 0 a' 0 v;
    a'
  in
  let grow_bool a =
    let a' = Array.make cap false in
    Array.blit a 0 a' 0 v;
    a'
  in
  t.assigns <- grow_int t.assigns v_undef;
  t.level <- grow_int t.level (-1);
  t.reason <- grow_int t.reason cref_undef;
  t.phase <- grow_bool t.phase;
  t.mentioned <- grow_bool t.mentioned;
  t.seen <- grow_bool t.seen;
  (let a' = Array.make cap 0.0 in
   Array.blit !(t.activity) 0 a' 0 v;
   t.activity := a');
  (let tr' = Array.make cap 0 in
   Array.blit t.trail 0 tr' 0 t.n_trail;
   t.trail <- tr');
  (let wd' = Array.make (2 * cap) [||] in
   Array.blit t.w_data 0 wd' 0 (2 * v);
   t.w_data <- wd');
  let ws' = Array.make (2 * cap) 0 in
  Array.blit t.w_size 0 ws' 0 (2 * v);
  t.w_size <- ws'

let new_var t =
  let v = t.n_vars in
  if v >= Array.length t.assigns then grow_vars t (max 16 (2 * Array.length t.assigns));
  t.assigns.(v) <- v_undef;
  t.level.(v) <- -1;
  t.reason.(v) <- cref_undef;
  t.phase.(v) <- false;
  t.mentioned.(v) <- false;
  t.seen.(v) <- false;
  !(t.activity).(v) <- 0.0;
  t.w_data.(2 * v) <- [||];
  t.w_data.((2 * v) + 1) <- [||];
  t.w_size.(2 * v) <- 0;
  t.w_size.((2 * v) + 1) <- 0;
  t.n_vars <- v + 1;
  Iheap.insert t.order v;
  v

let ensure_vars t n =
  while nvars t < n do
    ignore (new_var t)
  done

let okay t = t.ok

let n_clauses t = Vec.size t.clauses
let n_learnts t = Vec.size t.learnts

let stats t =
  let st = Stats.create () in
  Stats.add st "conflicts" t.n_conflicts;
  Stats.add st "decisions" t.n_decisions;
  Stats.add st "propagations" t.n_propagations;
  Stats.add st "restarts" t.n_restarts;
  Stats.add st "learnt" t.n_learnt;
  Stats.add st "deleted" t.n_deleted;
  Stats.add st "solve_calls" t.n_solve_calls;
  Stats.add st "minimized_lits" t.n_minimized;
  Stats.add st "reduce_dbs" t.n_reduce_dbs;
  Stats.add st "watcher_visits" t.n_watch_visits;
  Stats.add st "blocker_skips" t.n_blocker_skips;
  Stats.add st "chrono_cubes" t.n_chrono_cubes;
  Stats.add st "arena_words" (Arena.len t.arena);
  Stats.add st "arena_bytes" (8 * Arena.len t.arena);
  Stats.add st "arena_live_words" (Arena.live_words t.arena);
  Stats.add st "arena_gcs" t.n_gcs;
  Stats.add st "arena_gc_words" t.n_gc_words;
  Stats.add st "groups_live" (Hashtbl.length t.groups);
  Stats.add st "groups_retired" t.n_groups_retired;
  Stats.add st "learnts_kept" t.n_learnts_kept;
  st

(* --- assignment primitives ------------------------------------------- *)

let value_var t v = t.assigns.(v)

(* Positive literals have low bit 0, so xor-ing the sign bit into the
   variable's 0/1 value gives the literal's value directly. *)
let value_lit t l =
  let a = Array.unsafe_get t.assigns (l lsr 1) in
  if a < 0 then v_undef else a lxor (l land 1)

let decision_level t = Vec.size t.trail_lim

let new_decision_level t = Vec.push t.trail_lim t.n_trail

let enqueue t l reason =
  match value_lit t l with
  | 1 -> true
  | 0 -> false
  | _ ->
    let v = Lit.var l in
    t.assigns.(v) <- (l land 1) lxor 1;
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    t.trail.(t.n_trail) <- l;
    t.n_trail <- t.n_trail + 1;
    true

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = t.n_trail - 1 downto bound do
      let l = t.trail.(i) in
      let v = Lit.var l in
      t.phase.(v) <- Lit.sign l;
      t.assigns.(v) <- v_undef;
      t.reason.(v) <- cref_undef;
      t.level.(v) <- -1;
      if t.mentioned.(v) then Iheap.insert t.order v
    done;
    t.n_trail <- bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- bound
  end

(* --- activities ------------------------------------------------------ *)

let var_bump t v =
  let act = !(t.activity) in
  let a = act.(v) +. t.var_inc in
  act.(v) <- a;
  if a > 1e100 then begin
    for i = 0 to t.n_vars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Iheap.decrease t.order v

let var_decay_activity t = t.var_inc <- t.var_inc *. var_decay

let cla_bump t cr =
  let a = Arena.activity t.arena cr +. t.cla_inc in
  Arena.set_activity t.arena cr a;
  if a > 1e20 then begin
    Vec.iter
      (fun cr -> Arena.set_activity t.arena cr (Arena.activity t.arena cr *. 1e-20))
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* --- watcher lists ----------------------------------------------------- *)

let watch_push t l cr blocker =
  let n = t.w_size.(l) in
  let d = t.w_data.(l) in
  let d =
    if (2 * n) + 2 > Array.length d then begin
      let d' = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 (2 * n);
      t.w_data.(l) <- d';
      d'
    end
    else d
  in
  d.(2 * n) <- cr;
  d.((2 * n) + 1) <- blocker;
  t.w_size.(l) <- n + 1

let watch_remove t l cr =
  let d = t.w_data.(l) in
  let n = t.w_size.(l) in
  let rec find i =
    if i >= n then ()
    else if d.(2 * i) = cr then begin
      d.(2 * i) <- d.(2 * (n - 1));
      d.((2 * i) + 1) <- d.((2 * (n - 1)) + 1);
      t.w_size.(l) <- n - 1
    end
    else find (i + 1)
  in
  find 0

let attach t cr =
  let l0 = Arena.lit t.arena cr 0 and l1 = Arena.lit t.arena cr 1 in
  watch_push t (Lit.negate l0) cr l1;
  watch_push t (Lit.negate l1) cr l0

let detach t cr =
  watch_remove t (Lit.negate (Arena.lit t.arena cr 0)) cr;
  watch_remove t (Lit.negate (Arena.lit t.arena cr 1)) cr

(* --- propagation ------------------------------------------------------ *)

let propagate t =
  let conflict = ref cref_undef in
  while !conflict = cref_undef && t.qhead < t.n_trail do
    let p = Array.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = Lit.negate p in
    (* Literal [false_lit] just became false; visit the watchers of [p].
       [ws] cannot be repointed inside the loop: the only pushes go to
       the new watch literal's list, and that literal is never false
       here, so it is never [false_lit]'s list. *)
    let ws = t.w_data.(p) in
    let n = t.w_size.(p) in
    t.n_watch_visits <- t.n_watch_visits + n;
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let cr = Array.unsafe_get ws (2 * !i) in
      let blocker = Array.unsafe_get ws ((2 * !i) + 1) in
      incr i;
      if value_lit t blocker = 1 then begin
        (* Blocker satisfied: keep the watch, clause memory untouched. *)
        t.n_blocker_skips <- t.n_blocker_skips + 1;
        Array.unsafe_set ws (2 * !j) cr;
        Array.unsafe_set ws ((2 * !j) + 1) blocker;
        incr j
      end
      else begin
        let data = Arena.raw t.arena in
        let base = cr + Arena.header_words in
        if Array.unsafe_get data base = false_lit then begin
          Array.unsafe_set data base (Array.unsafe_get data (base + 1));
          Array.unsafe_set data (base + 1) false_lit
        end;
        (* Invariant: slot 1 holds [false_lit]. *)
        let first = Array.unsafe_get data base in
        if first <> blocker && value_lit t first = 1 then begin
          Array.unsafe_set ws (2 * !j) cr;
          Array.unsafe_set ws ((2 * !j) + 1) first;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let size = Arena.raw_size data cr in
          let rec find k =
            if k >= size then -1
            else if value_lit t (Array.unsafe_get data (base + k)) <> 0 then k
            else find (k + 1)
          in
          let k = find 2 in
          if k >= 0 then begin
            let lk = Array.unsafe_get data (base + k) in
            Array.unsafe_set data (base + 1) lk;
            Array.unsafe_set data (base + k) false_lit;
            watch_push t (Lit.negate lk) cr first
          end
          else begin
            (* Unit or conflicting. *)
            Array.unsafe_set ws (2 * !j) cr;
            Array.unsafe_set ws ((2 * !j) + 1) first;
            incr j;
            if not (enqueue t first cr) then begin
              conflict := cr;
              t.qhead <- t.n_trail;
              (* Copy the remaining watchers back. *)
              while !i < n do
                Array.unsafe_set ws (2 * !j) (Array.unsafe_get ws (2 * !i));
                Array.unsafe_set ws ((2 * !j) + 1)
                  (Array.unsafe_get ws ((2 * !i) + 1));
                incr i;
                incr j
              done
            end
          end
        end
      end
    done;
    t.w_size.(p) <- !j
  done;
  !conflict

(* --- conflict analysis ------------------------------------------------ *)

(* A learnt-tail literal is redundant if it is implied by literals already
   in the clause: its reason's literals are all seen or fixed at level 0
   (local minimization). *)
let literal_redundant t q =
  let r = t.reason.(Lit.var q) in
  if r = cref_undef then false
  else begin
    let ok = ref true in
    let sz = Arena.size t.arena r in
    for k = 1 to sz - 1 do
      let vr = Lit.var (Arena.lit t.arena r k) in
      if (not t.seen.(vr)) && t.level.(vr) > 0 then ok := false
    done;
    !ok
  end

let analyze t confl =
  let learnt = Vec.create ~dummy:(-1) in
  Vec.push learnt (-1) (* slot for the asserting literal *);
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (t.n_trail - 1) in
  let c = ref confl in
  let to_clear = ref [] in
  let continue = ref true in
  while !continue do
    if Arena.learnt t.arena !c then cla_bump t !c;
    let sz = Arena.size t.arena !c in
    let start = if !p = -1 then 0 else 1 in
    for k = start to sz - 1 do
      let q = Arena.lit t.arena !c k in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        to_clear := v :: !to_clear;
        var_bump t v;
        if t.level.(v) >= decision_level t then incr path_count
        else Vec.push learnt q
      end
    done;
    (* Next clause to resolve with: walk the trail backwards. *)
    while not t.seen.(Lit.var t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    c := t.reason.(Lit.var !p);
    t.seen.(Lit.var !p) <- false;
    decr path_count;
    if !path_count <= 0 then continue := false
  done;
  Vec.set learnt 0 (Lit.negate !p);
  (* Conflict-clause minimization. *)
  let kept = Vec.create ~dummy:(-1) in
  Vec.push kept (Vec.get learnt 0);
  for k = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt k in
    if literal_redundant t q then t.n_minimized <- t.n_minimized + 1
    else Vec.push kept q
  done;
  (* Backtrack level = max level among tail literals; move that literal to
     position 1 so it is watched. *)
  let bt_level = ref 0 in
  if Vec.size kept > 1 then begin
    let max_i = ref 1 in
    for k = 1 to Vec.size kept - 1 do
      if t.level.(Lit.var (Vec.get kept k)) > t.level.(Lit.var (Vec.get kept !max_i))
      then max_i := k
    done;
    let tmp = Vec.get kept 1 in
    Vec.set kept 1 (Vec.get kept !max_i);
    Vec.set kept !max_i tmp;
    bt_level := t.level.(Lit.var (Vec.get kept 1))
  end;
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  (Vec.to_array kept, !bt_level)

(* Store a learnt clause of two or more literals. *)
let store_learnt t lits =
  let cr = Arena.alloc t.arena ~learnt:true lits (Array.length lits) in
  Vec.push t.learnts cr;
  attach t cr;
  cla_bump t cr;
  cr

(* Record a learnt clause after the backjump to its asserting level. *)
let record_learnt t lits =
  t.n_learnt <- t.n_learnt + 1;
  if Array.length lits = 1 then begin
    cancel_until t 0;
    ignore (enqueue t lits.(0) cref_undef)
  end
  else ignore (enqueue t lits.(0) (store_learnt t lits))

(* --- learnt-clause DB reduction and arena compaction ------------------- *)

let locked t cr =
  let l0 = Arena.lit t.arena cr 0 in
  t.reason.(Lit.var l0) = cr && value_lit t l0 = 1

(* Copying collection: every live reference site is visited once and
   relocated into a fresh arena. Watchers go first so clauses watched on
   the same literal land adjacent (propagation locality). Reasons are
   safe to walk wholesale: only locked clauses are reasons, and locked
   clauses are never freed, so every non-undef reason is live. *)
let garbage_collect t =
  let from = t.arena in
  let before_words = Arena.len from in
  let into = Arena.create ~capacity:(Arena.live_words from) () in
  for l = 0 to (2 * t.n_vars) - 1 do
    let d = t.w_data.(l) in
    for i = 0 to t.w_size.(l) - 1 do
      d.(2 * i) <- Arena.reloc ~from ~into d.(2 * i)
    done
  done;
  for v = 0 to t.n_vars - 1 do
    let r = t.reason.(v) in
    if r <> cref_undef then t.reason.(v) <- Arena.reloc ~from ~into r
  done;
  for i = 0 to Vec.size t.clauses - 1 do
    Vec.set t.clauses i (Arena.reloc ~from ~into (Vec.get t.clauses i))
  done;
  for i = 0 to Vec.size t.learnts - 1 do
    Vec.set t.learnts i (Arena.reloc ~from ~into (Vec.get t.learnts i))
  done;
  (* Group registries are a secondary index into [t.clauses]; [reloc]'s
     forwarding pointers make the second visit a lookup, not a copy. *)
  Hashtbl.iter
    (fun _ crs ->
      for i = 0 to Vec.size crs - 1 do
        Vec.set crs i (Arena.reloc ~from ~into (Vec.get crs i))
      done)
    t.groups;
  t.arena <- into;
  t.n_gcs <- t.n_gcs + 1;
  t.n_gc_words <- t.n_gc_words + (before_words - Arena.len into);
  if not (Trace.is_null t.trace) then
    Trace.emit t.trace
      (Trace.Gc { before_words; after_words = Arena.len into })

let reduce_db t =
  t.n_reduce_dbs <- t.n_reduce_dbs + 1;
  let before = Vec.size t.learnts in
  let arr = Vec.to_array t.learnts in
  Array.sort
    (fun a b -> compare (Arena.activity t.arena a) (Arena.activity t.arena b))
    arr;
  let n = Array.length arr in
  let lim = t.cla_inc /. float_of_int (max n 1) in
  Vec.clear t.learnts;
  Array.iteri
    (fun i cr ->
      let doomed =
        Arena.size t.arena cr > 2
        && (not (locked t cr))
        && (i < n / 2 || Arena.activity t.arena cr < lim)
      in
      if doomed then begin
        detach t cr;
        Arena.free t.arena cr;
        t.n_deleted <- t.n_deleted + 1
      end
      else Vec.push t.learnts cr)
    arr;
  if not (Trace.is_null t.trace) then
    Trace.emit t.trace (Trace.Reduce_db { before; after = Vec.size t.learnts });
  if Arena.should_gc t.arena then garbage_collect t

(* --- adding clauses ---------------------------------------------------- *)

(* [lit_buffer t n] is the normaliser's scratch, with room for [n]
   literals. *)
let lit_buffer t n =
  if Array.length t.lit_buf < n then
    t.lit_buf <- Array.make (max n (2 * Array.length t.lit_buf)) 0;
  t.lit_buf

(* Sort the first [n] words of [b] in increasing order: an insertion
   sort for the short clauses that make up nearly every formula, a
   library sort past [insertion_max] literals. *)
let insertion_max = 64

let sort_prefix b n =
  if n > insertion_max then begin
    let a = Array.sub b 0 n in
    Array.sort Int.compare a;
    Array.blit a 0 b 0 n
  end
  else
    for i = 1 to n - 1 do
      let l = b.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && b.(!j) > l do
        b.(!j + 1) <- b.(!j);
        decr j
      done;
      b.(!j + 1) <- l
    done

(* The one clause path, for [add_clause], [add_grouped] and [load]: the
   clause is the first [n] words of [t.lit_buf]. It is normalised in
   place: sorted and deduplicated; a tautology ([l] next to [l lxor 1]
   once sorted) or a root-true literal drops it, and root-false literals
   are filtered out. Returns the arena reference when the clause was
   actually stored, so the group registry can index it. *)
let add_buffered t n =
  cancel_until t 0;
  if not t.ok then (false, cref_undef)
  else begin
    let b = t.lit_buf in
    let top = ref (-1) in
    for i = 0 to n - 1 do
      if Lit.var b.(i) > !top then top := Lit.var b.(i)
    done;
    ensure_vars t (!top + 1);
    sort_prefix b n;
    let k = ref 0 in
    for i = 0 to n - 1 do
      if !k = 0 || b.(!k - 1) <> b.(i) then begin
        b.(!k) <- b.(i);
        incr k
      end
    done;
    let k = !k in
    let satisfied = ref false in
    for i = 0 to k - 1 do
      if value_lit t b.(i) = 1 || (i + 1 < k && b.(i + 1) = Lit.negate b.(i)) then
        satisfied := true
    done;
    if !satisfied then (true, cref_undef)
    else begin
      let m = ref 0 in
      for i = 0 to k - 1 do
        if value_lit t b.(i) <> 0 then begin
          b.(!m) <- b.(i);
          incr m
        end
      done;
      match !m with
      | 0 ->
        t.ok <- false;
        (false, cref_undef)
      | 1 ->
        ignore (enqueue t b.(0) cref_undef);
        if propagate t <> cref_undef then begin
          t.ok <- false;
          (false, cref_undef)
        end
        else (true, cref_undef)
      | m ->
        for i = 0 to m - 1 do
          let v = Lit.var b.(i) in
          if not t.mentioned.(v) then begin
            t.mentioned.(v) <- true;
            Iheap.insert t.order v
          end
        done;
        let cr = Arena.alloc t.arena ~learnt:false b m in
        Vec.push t.clauses cr;
        attach t cr;
        (true, cr)
    end
  end

(* [add_list t ?first lits] puts [first] (when given) and then [lits] in
   the scratch buffer and adds them as one clause. *)
let add_list t ?first lits =
  let off = if Option.is_some first then 1 else 0 in
  let n = off + List.length lits in
  let b = lit_buffer t n in
  Option.iter (fun l -> b.(0) <- l) first;
  List.iteri (fun i l -> b.(off + i) <- l) lits;
  add_buffered t n

let add_clause t lits = fst (add_list t lits)

(* The clause list is newest first: the clauses go into an array oldest
   first, and the arena and the per-variable arrays are sized to the
   formula before the first clause is added. *)
let load t cnf =
  let n = List.length cnf.Cnf.clauses in
  let in_order = Array.make n [||] in
  let words = ref 0 in
  List.iteri
    (fun i c ->
      in_order.(n - 1 - i) <- c;
      let len = Array.length c in
      if len >= 2 then words := !words + Arena.header_words + len)
    cnf.Cnf.clauses;
  if cnf.Cnf.nvars > Array.length t.assigns then grow_vars t cnf.Cnf.nvars;
  ensure_vars t cnf.Cnf.nvars;
  Arena.reserve t.arena !words;
  Array.fold_left
    (fun ok c ->
      let len = Array.length c in
      Array.blit c 0 (lit_buffer t len) 0 len;
      fst (add_buffered t len) && ok)
    true in_order

(* --- retractable clause groups ------------------------------------------ *)

type group = int (* the activation variable *)

let new_group t =
  let v = new_var t in
  Hashtbl.replace t.groups v (Vec.create ~dummy:cref_undef);
  v

let group_lit _t g = Lit.pos g

let group_is_live t g = Hashtbl.mem t.groups g

let group_clauses t g =
  match Hashtbl.find_opt t.groups g with
  | Some crs -> Vec.size crs
  | None -> 0

let add_grouped t g lits =
  if not (Hashtbl.mem t.groups g) then
    invalid_arg "Solver.add_grouped: retired or unknown group";
  let ok, cr = add_list t ~first:(Lit.neg g) lits in
  if cr <> cref_undef then Vec.push (Hashtbl.find t.groups g) cr;
  ok

let retire_group t g =
  match Hashtbl.find_opt t.groups g with
  | None -> invalid_arg "Solver.retire_group: retired or unknown group"
  | Some crs ->
    Hashtbl.remove t.groups g;
    t.n_groups_retired <- t.n_groups_retired + 1;
    t.n_learnts_kept <- t.n_learnts_kept + Vec.size t.learnts;
    (* Permanently disable the activation literal; every clause of the
       group is root-satisfied from here on, so freeing the blocks below
       cannot lose information. *)
    ignore (add_clause t [ Lit.neg g ]);
    if Vec.size crs > 0 then begin
      let freed = Hashtbl.create (Vec.size crs) in
      Vec.iter
        (fun cr ->
          if not (Arena.dead t.arena cr) then begin
            detach t cr;
            Arena.free t.arena cr;
            Hashtbl.replace freed cr ()
          end)
        crs;
      (* A group clause may be the reason of a root-fixed literal (it
         went unit before retirement — typically for ¬g itself); level-0
         literals never need an antecedent, so clear those pointers
         before the blocks are reclaimed. *)
      for v = 0 to t.n_vars - 1 do
        if t.reason.(v) <> cref_undef && Hashtbl.mem freed t.reason.(v) then
          t.reason.(v) <- cref_undef
      done;
      let kept = Vec.create ~dummy:cref_undef in
      Vec.iter
        (fun cr -> if not (Hashtbl.mem freed cr) then Vec.push kept cr)
        t.clauses;
      Vec.clear t.clauses;
      Vec.iter (fun cr -> Vec.push t.clauses cr) kept;
      if Arena.should_gc t.arena then garbage_collect t
    end

let groups_live t = Hashtbl.length t.groups
let groups_retired t = t.n_groups_retired
let learnts_kept t = t.n_learnts_kept

(* --- the CDCL loop ------------------------------------------------------- *)

(* The unassigned mentioned variable of highest activity, or -1. An
   unmentioned one is dropped when popped; learnts mention no other. *)
let rec pick_branch_var t =
  if Iheap.is_empty t.order then -1
  else begin
    let v = Iheap.remove_max t.order in
    if value_var t v = v_undef && t.mentioned.(v) then v else pick_branch_var t
  end

let decide t lit =
  new_decision_level t;
  ignore (enqueue t lit cref_undef)

(* How many decisions between deadline/cancellation polls on
   conflict-free runs (conflicts poll the budget unconditionally). *)
let decision_poll_grain = 128

let out_of_budget t =
  match t.budget with None -> false | Some b -> Budget.check b <> None

let count_decision t =
  t.n_decisions <- t.n_decisions + 1;
  t.unpolled <- t.unpolled + 1

(* The one CDCL loop: propagate, learn and backjump on a conflict, Luby
   restarts, learnt-DB reduction and budget polls. Backjumps and
   restarts go no lower than [t.floor] (docs/ALGORITHMS.md §13).
   [next ()] runs whenever propagation is done and it is not time to
   restart or stop: it opens a level, or ends the search with [Some r].
   [refute lits d] runs on a conflict at level [d] whose learnt clause
   [lits] the floor keeps from being recorded by a backjump; with the
   floor at 0 it never runs. A conflict at level 0 ends it with
   [Unsat], a spent budget with [Unknown]. *)
let cdcl t ~next ~refute =
  t.max_learnts <- max t.max_learnts (float_of_int (Vec.size t.clauses) /. 3.0);
  t.unpolled <- 0;
  let attempt = ref 0 and conflicts = ref 0 and restart_lim = ref 0 in
  let next_episode () =
    incr attempt;
    conflicts := 0;
    restart_lim := restart_base * Luby.luby !attempt
  in
  next_episode ();
  let outcome = ref None in
  while !outcome = None do
    let confl = propagate t in
    if confl <> cref_undef then begin
      incr conflicts;
      t.n_conflicts <- t.n_conflicts + 1;
      (match t.budget with Some b -> Budget.tick_conflict b | None -> ());
      let d = decision_level t in
      if d = 0 then begin
        t.ok <- false;
        outcome := Some Unsat
      end
      else begin
        let lits, bt_level = analyze t confl in
        if d > t.floor && (t.floor = 0 || Array.length lits > 1) then begin
          cancel_until t (max bt_level t.floor);
          record_learnt t lits
        end
        else outcome := refute lits d;
        var_decay_activity t;
        cla_decay_activity t;
        if !outcome = None && out_of_budget t then outcome := Some Unknown
      end
    end
    else if !conflicts >= !restart_lim then begin
      cancel_until t t.floor;
      t.n_restarts <- t.n_restarts + 1;
      if not (Trace.is_null t.trace) then
        Trace.emit t.trace
          (Trace.Restart { conflicts = t.n_conflicts; learnts = Vec.size t.learnts });
      t.max_learnts <- t.max_learnts *. 1.1;
      next_episode ()
    end
    else if t.unpolled >= decision_poll_grain && out_of_budget t then
      outcome := Some Unknown
    else begin
      if t.unpolled >= decision_poll_grain then t.unpolled <- 0;
      if float_of_int (Vec.size t.learnts - t.n_trail) >= t.max_learnts then
        reduce_db t;
      outcome := next ()
    end
  done;
  Option.get !outcome

(* Entry and exit of [solve] and [enumerate_projected]: [body] runs
   unless the answer is known without search. *)
let run t budget trace body =
  t.n_solve_calls <- t.n_solve_calls + 1;
  t.have_model <- false;
  t.conflict_core <- [];
  t.budget <- budget;
  t.trace <- trace;
  let r =
    if not t.ok then Unsat
    else if (match budget with Some b -> Budget.check b <> None | None -> false)
    then Unknown
    else body ()
  in
  t.budget <- None;
  t.trace <- Trace.null;
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Solve
         {
           result = (match r with Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown");
           conflicts = t.n_conflicts;
         });
  r

(* --- solving under assumptions ------------------------------------------ *)

(* Which assumption literals force [p] false: walk the implication graph
   from ¬p back to the assumption decisions (MiniSat's analyzeFinal). *)
let analyze_final t p =
  let core = ref [ p ] in
  let v0 = Lit.var p in
  if t.level.(v0) > 0 then begin
    t.seen.(v0) <- true;
    let cleared = ref [ v0 ] in
    let start =
      if Vec.size t.trail_lim = 0 then 0 else Vec.get t.trail_lim 0
    in
    for i = t.n_trail - 1 downto start do
      let x = Lit.var t.trail.(i) in
      if t.seen.(x) then begin
        let r = t.reason.(x) in
        if r = cref_undef then
          (* a decision here is necessarily an assumption (this analysis
             only runs while assumptions alone are decided); the trail
             literal is the assumption itself. On [p]'s own variable it
             is ~p: the assumptions contradict each other, and the core
             needs both. *)
          core := t.trail.(i) :: !core
        else begin
          let sz = Arena.size t.arena r in
          for k = 1 to sz - 1 do
            let q = Arena.lit t.arena r k in
            let vq = Lit.var q in
            if t.level.(vq) > 0 && not t.seen.(vq) then begin
              t.seen.(vq) <- true;
              cleared := vq :: !cleared
            end
          done
        end;
        t.seen.(x) <- false
      end
    done;
    List.iter (fun v -> t.seen.(v) <- false) !cleared
  end;
  !core

(* With the floor at 0, no conflict is ever left to [refute]. *)
let no_floor _ _ = assert false

(* [solve] is the loop at floor 0: level [i+1] decides assumption [i],
   the levels above it decide by VSIDS, and a model gives a variable
   left unassigned its saved phase. *)
let solve ?(assumptions = []) ?budget ?(trace = Trace.null) t =
  run t budget trace (fun () ->
      let assumptions = Array.of_list assumptions in
      let n_assumps = Array.length assumptions in
      Array.iter (fun l -> ensure_vars t (Lit.var l + 1)) assumptions;
      (* Trail reuse: keep the levels of the assumptions this call shares
         with the last one; the loop re-decides from the first that
         differs (docs/ALGORITHMS.md §14). *)
      let prev = t.last_assumptions in
      let n = min (decision_level t) (min (Array.length prev) n_assumps) in
      let rec shared k =
        if k < n && prev.(k) = assumptions.(k) then shared (k + 1) else k
      in
      cancel_until t (shared 0);
      t.last_assumptions <- assumptions;
      let next () =
        let d = decision_level t in
        if d < n_assumps then begin
          let p = assumptions.(d) in
          match value_lit t p with
          | 1 ->
            new_decision_level t;
            None
          | 0 ->
            t.conflict_core <- analyze_final t p;
            Some Unsat
          | _ ->
            decide t p;
            None
        end
        else begin
          let v = pick_branch_var t in
          if v < 0 then begin
            t.model_arr <-
              Array.init (nvars t) (fun v ->
                  match value_var t v with -1 -> t.phase.(v) | a -> a = 1);
            t.have_model <- true;
            Some Sat
          end
          else begin
            count_decision t;
            decide t (Lit.make v t.phase.(v));
            None
          end
        end
      in
      match cdcl t ~next ~refute:no_floor with
      | Unknown ->
        cancel_until t 0;
        Unknown
      | r -> r)

(* --- projected enumeration by chronological backtracking ---------------- *)

(* The same loop, deciding projection variables before all others, so
   levels 1..P hold projection decisions and the levels above them only
   complete a model. After a model, the deepest projection decision not
   yet flipped is replaced, at its own level, by its negation. A flipped
   level has no reason and is never flipped again; the highest one is
   the floor, and backjumps and restarts stop there, so a flip is only
   undone when the search moves on below it — by then its subtree is
   exhausted. A conflict at the floor thus refutes the floor branch.
   Learnt clauses resolve reason clauses only and stay consequences of
   the clause set; no blocking clause is ever added (docs/ALGORITHMS.md
   §13).

   With [shrink], each model is cut down to a cube before it is
   reported: cancel to the floor, re-decide the projection literals the
   model needs above it (in trail order), and report what is assigned
   then. Every level above the floor is an unexplored subtree, so the
   cube lies inside the subtree the floor leaves open, and the next flip
   closes all of it. *)
let enumerate_projected ?budget ?(trace = Trace.null) ?shrink ?(witness = [||])
    t proj on_model =
  cancel_until t 0;
  Array.iter (fun v -> ensure_vars t (v + 1)) proj;
  Array.iter (fun v -> ensure_vars t (v + 1)) witness;
  run t budget trace (fun () ->
      let reported = Array.append proj witness in
      let is_proj = Array.make t.n_vars false in
      Array.iter (fun v -> is_proj.(v) <- true) proj;
      let pvars = Array.of_list (List.sort_uniq compare (Array.to_list proj)) in
      (* [closed.(l)]: level [l] is a flip, or a unit learnt (below). *)
      let closed = Array.make (t.n_vars + 1) false in
      (* Unit learnts derived above the root; added there at the end. *)
      let units = ref [] in
      let decision_lit lvl = t.trail.(Vec.get t.trail_lim (lvl - 1)) in
      let open_level lit ~close =
        let lvl = decision_level t + 1 in
        closed.(lvl) <- close;
        if close then t.floor <- lvl;
        decide t lit
      in
      let rec deepest_open lvl =
        if lvl = 0 then 0
        else if (not closed.(lvl)) && is_proj.(Lit.var (decision_lit lvl)) then lvl
        else deepest_open (lvl - 1)
      in
      (* Flip the deepest open projection decision at or below [lvl];
         [false] when every branch is exhausted. *)
      let next_branch lvl =
        match deepest_open lvl with
        | 0 -> false
        | k ->
          let l = decision_lit k in
          cancel_until t (k - 1);
          open_level (Lit.negate l) ~close:true;
          true
      in
      (* Store a learnt clause without backjumping to its asserting level;
         it asserts its first literal only if it is unit where we are. *)
      let keep_learnt lits =
        t.n_learnt <- t.n_learnt + 1;
        if Array.length lits = 1 then units := lits.(0) :: !units
        else begin
          let cr = store_learnt t lits in
          if value_lit t lits.(1) = 0 then ignore (enqueue t lits.(0) cr)
        end
      in
      let refute lits d =
        if d > t.floor then begin
          (* A unit learnt above the floor: the root is out of reach, so
             assert it as a closed level of its own — its negation has
             no model. *)
          cancel_until t t.floor;
          keep_learnt lits;
          open_level lits.(0) ~close:true;
          None
        end
        else if next_branch (d - 1) then begin
          count_decision t;
          keep_learnt lits;
          None
        end
        else begin
          cancel_until t 0;
          keep_learnt lits;
          Some Unsat
        end
      in
      let pick_proj () =
        let act = !(t.activity) in
        let best = ref (-1) in
        Array.iter
          (fun v ->
            if t.assigns.(v) = v_undef && (!best < 0 || act.(v) > act.(!best)) then
              best := v)
          pvars;
        !best
      in
      (* [required] marks the variables a model's cube needs (clear
         between reports). A variable at several positions always stays
         fixed: a cube cannot say that its positions agree. *)
      let required, repeated =
        match shrink with
        | None -> ([||], [])
        | Some _ ->
          let n = Array.make t.n_vars 0 in
          Array.iter (fun v -> n.(v) <- n.(v) + 1) proj;
          (Array.make t.n_vars false,
           List.filter (fun v -> n.(v) > 1) (Array.to_list pvars))
      in
      (* Shrink the model on the trail to its cube (see above) and return
         the positions the cube fixes. *)
      let shrink_to_cube shrink =
        let mask = shrink (Array.init t.n_vars (fun v -> t.assigns.(v) = 1)) in
        Array.iteri (fun i v -> if mask.(i) then required.(v) <- true) proj;
        List.iter (fun v -> required.(v) <- true) repeated;
        let keep = ref [] in
        let above_floor =
          if decision_level t > t.floor then Vec.get t.trail_lim t.floor
          else t.n_trail
        in
        for i = t.n_trail - 1 downto above_floor do
          let l = t.trail.(i) in
          if required.(Lit.var l) then keep := l :: !keep
        done;
        Array.iter (fun v -> required.(v) <- false) proj;
        cancel_until t t.floor;
        (* The literals agree with a total model, which satisfies every
           clause: propagating them cannot conflict. *)
        List.iter
          (fun l ->
            let value = value_lit t l in
            assert (value <> 0);
            if value = v_undef then begin
              count_decision t;
              open_level l ~close:false;
              let confl = propagate t in
              assert (confl = cref_undef)
            end)
          !keep;
        Array.map (fun v -> t.assigns.(v) <> v_undef) proj
      in
      let all_fixed = Array.make (Array.length proj) true in
      let next () =
        let v = pick_proj () in
        let v = if v >= 0 then v else pick_branch_var t in
        if v >= 0 then begin
          count_decision t;
          open_level (Lit.make v t.phase.(v)) ~close:false;
          None
        end
        else begin
          t.n_chrono_cubes <- t.n_chrono_cubes + 1;
          let bits = Array.map (fun v -> t.assigns.(v) = 1) reported in
          let mask =
            match shrink with
            | None -> all_fixed
            | Some shrink -> shrink_to_cube shrink
          in
          if not (on_model bits mask) then Some Sat
          else if next_branch (decision_level t) then begin
            count_decision t;
            None
          end
          else Some Unsat
        end
      in
      (* Also when [on_model] or [shrink] raises: a floor left above 0
         would hold the next [solve] above the root. *)
      Fun.protect
        ~finally:(fun () ->
          t.floor <- 0;
          cancel_until t 0;
          List.iter (fun u -> ignore (add_clause t [ u ])) (List.rev !units))
        (fun () -> cdcl t ~next ~refute))

let model_value t v =
  if not t.have_model then invalid_arg "Solver.model_value: no model";
  if v < 0 || v >= Array.length t.model_arr then
    invalid_arg "Solver.model_value: unknown variable";
  t.model_arr.(v)

let model t =
  if not t.have_model then invalid_arg "Solver.model: no model";
  Array.copy t.model_arr

let root_value t v =
  if v < nvars t && t.level.(v) = 0 then
    match value_var t v with 1 -> Some true | 0 -> Some false | _ -> None
  else None

let unsat_core t = t.conflict_core

(* --- introspection / testing hooks ------------------------------------- *)

let check_watches t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    let live = Hashtbl.create 64 in
    let record cr =
      if cr = cref_undef then bad "clause list holds cref_undef";
      if Arena.dead t.arena cr then bad "clause list holds dead cref %d" cr;
      Hashtbl.replace live cr 0
    in
    Vec.iter record t.clauses;
    Vec.iter record t.learnts;
    (* Live group registries only reference live problem clauses. *)
    Hashtbl.iter
      (fun g crs ->
        Vec.iter
          (fun cr ->
            if cr = cref_undef || Arena.dead t.arena cr then
              bad "group %d holds dead cref %d" g cr;
            if not (Vec.exists (fun c -> c = cr) t.clauses) then
              bad "group %d cref %d not in the problem-clause list" g cr)
          crs)
      t.groups;
    (* The arena's live blocks are exactly the registered clauses. *)
    let n_arena = ref 0 in
    Arena.iter_live
      (fun cr ->
        incr n_arena;
        if not (Hashtbl.mem live cr) then
          bad "arena block %d not in clause lists" cr)
      t.arena;
    if !n_arena <> Hashtbl.length live then
      bad "arena has %d live blocks, clause lists %d" !n_arena
        (Hashtbl.length live);
    (* Every watcher references a live clause through one of its two
       watched literals. *)
    for l = 0 to (2 * t.n_vars) - 1 do
      for i = 0 to t.w_size.(l) - 1 do
        let cr = t.w_data.(l).(2 * i) in
        (match Hashtbl.find_opt live cr with
        | None -> bad "watcher of literal %d references unknown cref %d" l cr
        | Some n -> Hashtbl.replace live cr (n + 1));
        let l0 = Arena.lit t.arena cr 0 and l1 = Arena.lit t.arena cr 1 in
        if Lit.negate l0 <> l && Lit.negate l1 <> l then
          bad "cref %d watched on literal %d but watches %d/%d" cr l
            (Lit.negate l0) (Lit.negate l1)
      done
    done;
    (* ... and every clause is watched exactly twice. *)
    Hashtbl.iter
      (fun cr n -> if n <> 2 then bad "cref %d has %d watchers (want 2)" cr n)
      live;
    Ok ()
  with Bad msg -> Error msg

let dbg_reduce_db t = reduce_db t
let dbg_gc t = garbage_collect t
let dbg_set_var_inc t x = t.var_inc <- x
let arena_words t = Arena.len t.arena
let arena_gcs t = t.n_gcs
