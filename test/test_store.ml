(* Tests for the durable solution store: record framing, write-time
   subsumption, crash recovery (including truncation at every byte
   offset and single-byte corruption anywhere in the file),
   verification, resume equivalence for all-SAT and reachability, and
   the Cube_set satellite changes (trie-backed reduce, checked union
   counts). *)

module Cube = Ps_allsat.Cube
module Cube_set = Ps_allsat.Cube_set
module Cube_trie = Ps_allsat.Cube_trie
module Project = Ps_allsat.Project
module Blocking = Ps_allsat.Blocking
module Run = Ps_allsat.Run
module Solver = Ps_sat.Solver
module Dimacs = Ps_sat.Dimacs
module St = Ps_store.Store
module Verify = Ps_store.Verify
module Crc32 = Ps_store.Crc32

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let c = Cube.of_string

let tmp_log () = Filename.temp_file "pstore_test" ".log"

let with_log f =
  let path = tmp_log () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let meta ?(vars = [||]) ?(source = "") ?(source_crc = 0) width =
  { St.engine = "test"; width; vars; source; source_crc }

let cube_strings cubes = List.map Cube.to_string cubes

(* --- CRC32 --------------------------------------------------------------- *)

let test_crc32 () =
  (* standard check value for CRC-32/ISO-HDLC *)
  check_int "crc(123456789)" 0xCBF43926 (Crc32.string "123456789");
  check_int "crc(empty)" 0 (Crc32.string "");
  let s = "the quick brown fox" in
  let piecewise =
    let crc = Crc32.update 0 s 0 9 in
    Crc32.update crc s 9 (String.length s - 9)
  in
  check_int "streaming = one-shot" (Crc32.string s) piecewise

(* --- roundtrip ----------------------------------------------------------- *)

let test_roundtrip () =
  with_log @@ fun path ->
  let m = meta ~vars:[| 0; 1; 2; 3 |] ~source:"probe.cnf" ~source_crc:42 4 in
  let w = St.create ~path m in
  check_bool "kept 01--" true (St.append w (c "01--"));
  check_bool "kept 10-1" true (St.append w (c "10-1"));
  let floats = [ ("t", 0.1); ("tiny", 1.5e-300); ("neg", -3.25) ] in
  St.checkpoint ~kind:"frame" ~frame:1 ~ints:[ ("n", 7) ] ~floats w ();
  check_bool "kept 111-" true (St.append w (c "111-"));
  St.finalize w ~complete:true ();
  match St.recover ~path with
  | Error e -> Alcotest.fail ("recover: " ^ e)
  | Ok r ->
      check_bool "meta" true (r.St.meta = m);
      Alcotest.(check (list string))
        "cubes in order"
        [ "01--"; "10-1"; "111-" ]
        (cube_strings r.St.cubes);
      check_bool "not torn" false r.St.torn;
      check_int "dropped" 0 r.St.dropped_cubes;
      check_int "checkpoints" 3 (List.length r.St.segments);
      Alcotest.(check string) "final" "final" r.St.last.St.kind;
      check_bool "complete" true r.St.last.St.complete;
      check_int "final count" 3 r.St.last.St.cubes;
      let frame_ck =
        List.find (fun (ck, _) -> ck.St.kind = "frame") r.St.segments |> fst
      in
      check_int "frame number" 1 frame_ck.St.frame;
      check_bool "ints round-trip" true (frame_ck.St.ints = [ ("n", 7) ]);
      check_bool "floats round-trip exactly" true (frame_ck.St.floats = floats)

let test_subsumption_on_write () =
  with_log @@ fun path ->
  let w = St.create ~path (meta 4) in
  check_bool "kept 1---" true (St.append w (c "1---"));
  check_bool "subsumed 11--" false (St.append w (c "11--"));
  check_bool "duplicate 1---" false (St.append w (c "1---"));
  check_bool "kept 0-0-" true (St.append w (c "0-0-"));
  let s = St.stats w in
  check_int "kept" 2 s.St.cubes;
  check_int "subsumed_on_write" 2 s.St.subsumed_on_write;
  St.finalize w ~complete:true ();
  match St.recover ~path with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check (list string))
        "log holds the irredundant cover" [ "1---"; "0-0-" ]
        (cube_strings r.St.cubes)

(* --- crash recovery ------------------------------------------------------ *)

(* A reference log whose full contents we know exactly. *)
let build_reference_log path =
  let w = St.create ~checkpoint_every:0 ~path (meta 4) in
  ignore (St.append w (c "00--"));
  ignore (St.append w (c "01-1"));
  St.checkpoint ~kind:"frame" ~frame:1 w ();
  ignore (St.append w (c "10-0"));
  ignore (St.append w (c "110-"));
  St.finalize w ~complete:true ();
  [ "00--"; "01-1"; "10-0"; "110-" ]

let is_prefix_of xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (xs, ys)

(* Satellite 3: truncate the log at EVERY byte offset. Recovery must
   never raise, never invent cubes, and must land exactly on the last
   checkpoint that fully survived. *)
let test_truncate_every_offset () =
  with_log @@ fun path ->
  let all = build_reference_log path in
  let bytes = read_file path in
  let n = String.length bytes in
  with_log @@ fun cut ->
  for k = 0 to n - 1 do
    write_file cut (String.sub bytes 0 k);
    match St.recover ~path:cut with
    | Error _ -> () (* lost before the first surviving checkpoint *)
    | Ok r ->
        check_bool
          (Printf.sprintf "cut@%d: prefix" k)
          true
          (is_prefix_of (cube_strings r.St.cubes) all);
        check_int
          (Printf.sprintf "cut@%d: count matches checkpoint" k)
          r.St.last.St.cubes
          (List.length r.St.cubes);
        check_bool
          (Printf.sprintf "cut@%d: valid prefix fits" k)
          true (r.St.valid_bytes <= k)
  done;
  (* the untruncated log is clean *)
  match St.recover ~path with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_bool "full: not torn" false r.St.torn;
      Alcotest.(check (list string)) "full: all cubes" all
        (cube_strings r.St.cubes)

(* Flip every single byte in turn: CRC framing must detect each one —
   recovery either refuses the log or reports a torn tail with a
   strict prefix of the data. A silently-accepted clean full recovery
   would be a correctness bug. *)
let test_flip_every_byte () =
  with_log @@ fun path ->
  let all = build_reference_log path in
  let bytes = read_file path in
  let n = String.length bytes in
  with_log @@ fun hurt ->
  for k = 0 to n - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x20));
    write_file hurt (Bytes.to_string b);
    match St.recover ~path:hurt with
    | Error _ -> ()
    | Ok r ->
        check_bool
          (Printf.sprintf "flip@%d: detected" k)
          true r.St.torn;
        check_bool
          (Printf.sprintf "flip@%d: prefix" k)
          true
          (is_prefix_of (cube_strings r.St.cubes) all)
  done

let test_resume_after_torn_tail () =
  with_log @@ fun path ->
  let _ = build_reference_log path in
  let bytes = read_file path in
  (* tear the final checkpoint *)
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  match St.resume ~checkpoint_every:0 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w) ->
      check_bool "torn" true r.St.torn;
      (* cubes after the frame checkpoint were rolled back *)
      Alcotest.(check (list string))
        "rolled back to frame checkpoint" [ "00--"; "01-1" ]
        (cube_strings r.St.cubes);
      (* the file was truncated for good and reopened for append *)
      check_bool "dedup survives resume" false (St.append w (c "01-1"));
      check_bool "fresh cube kept" true (St.append w (c "1111"));
      St.finalize w ~complete:true ();
      (match St.recover ~path with
      | Error e -> Alcotest.fail e
      | Ok r2 ->
          check_bool "clean after resume" false r2.St.torn;
          Alcotest.(check (list string))
            "resume checkpoint then new cube"
            [ "00--"; "01-1"; "1111" ]
            (cube_strings r2.St.cubes);
          check_bool "resume checkpoint present" true
            (List.exists (fun (ck, _) -> ck.St.kind = "resume") r2.St.segments))

(* --- shard sub-logs ------------------------------------------------------ *)

let test_shard_lifecycle () =
  with_log @@ fun path ->
  let w = St.create ~path (meta 2) in
  let sink = St.sink w in
  sink.Run.on_shard ~prefix:"1-" ~cubes:[ c "11"; c "10" ];
  sink.Run.on_shard ~prefix:"0-" ~cubes:[ c "01" ];
  check_bool "shard file exists" true (Sys.file_exists (path ^ ".shard-1-"));
  St.finalize w ~complete:true ();
  check_bool "finalize removes shards" false
    (Sys.file_exists (path ^ ".shard-1-"));
  check_bool "finalize removes shards (2)" false
    (Sys.file_exists (path ^ ".shard-0-"))

let test_shard_consolidation_on_resume () =
  with_log @@ fun path ->
  let w = St.create ~path (meta 2) in
  let sink = St.sink w in
  ignore (St.append w (c "11"));
  (* shards that survived a crash before the merge *)
  sink.Run.on_shard ~prefix:"1-" ~cubes:[ c "11"; c "10" ];
  sink.Run.on_shard ~prefix:"0-" ~cubes:[ c "01" ];
  (* a torn half-written shard must be swept, not consolidated *)
  write_file (path ^ ".shard-0-.tmp") "garbage";
  (* "crash": never finalize [w]; the log ends after the start
     checkpoint plus one unanchored cube *)
  match St.resume ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      (* "11" was after the last checkpoint -> dropped from the main
         log, but the shard sub-log re-supplies it; shards consolidate
         in prefix order *)
      Alcotest.(check (list string))
        "shards consolidated deterministically" [ "01"; "11"; "10" ]
        (cube_strings r.St.cubes);
      check_bool "shard files removed" false
        (Sys.file_exists (path ^ ".shard-1-"));
      check_bool "tmp leftover removed" false
        (Sys.file_exists (path ^ ".shard-0-.tmp"));
      St.finalize w2 ~complete:true ();
      (match St.recover ~path with
      | Error e -> Alcotest.fail e
      | Ok r2 ->
          Alcotest.(check (list string))
            "consolidation is durable" [ "01"; "11"; "10" ]
            (cube_strings r2.St.cubes))

(* --- verify -------------------------------------------------------------- *)

(* (v1 \/ v2) /\ (~v3 \/ ~v4): 9 solutions over 4 projected vars *)
let probe_cnf = "p cnf 4 2\n1 2 0\n-3 -4 0\n"

let probe_proj = Project.of_vars [| 0; 1; 2; 3 |]

let enumerate_probe () =
  let solver = Solver.create () in
  ignore (Solver.load solver (Dimacs.parse_string probe_cnf));
  (Blocking.enumerate solver probe_proj).Run.cubes

let store_cubes path cubes ~complete =
  let w = St.create ~path (meta ~vars:[| 0; 1; 2; 3 |] 4) in
  List.iter (fun cb -> ignore (St.append w cb)) cubes;
  St.finalize w ~complete ()

let recover_exn path =
  match St.recover ~path with Ok r -> r | Error e -> Alcotest.fail e

let test_verify_accepts_good_log () =
  with_log @@ fun path ->
  store_cubes path (enumerate_probe ()) ~complete:true;
  let r = recover_exn path in
  check_bool "certifiable" true (Verify.certifiable r = None);
  let rep = Verify.run ~cnf:(Dimacs.parse_string probe_cnf) r in
  check_bool "sound" true rep.Verify.sound;
  check_bool "complete" true (Verify.complete rep);
  check_bool "ok" true (Verify.ok rep);
  check_int "cubes" 9 rep.Verify.cubes

let test_verify_rejects_missing_cube () =
  with_log @@ fun path ->
  let dropped =
    match enumerate_probe () with
    | [] -> Alcotest.fail "probe enumeration is empty"
    | dropped :: rest ->
        store_cubes path rest ~complete:true;
        dropped
  in
  let r = recover_exn path in
  (* structurally fine (its own final checkpoint matches) ... *)
  check_bool "certifiable" true (Verify.certifiable r = None);
  (* ... but the coverage certificate must fail *)
  let rep = Verify.run ~cnf:(Dimacs.parse_string probe_cnf) r in
  check_bool "incomplete detected" false (Verify.complete rep);
  check_bool "rejected" false (Verify.ok rep);
  Alcotest.(check (option string))
    "the witness is the dropped minterm"
    (Some (Cube.to_string dropped))
    (Option.map Cube.to_string rep.Verify.missing)

(* Every minterm with x3 set, over a formula that forces x3: the descent
   meets four gaps ("000", "010", "100", "110"), and the core of the
   first one, ~x3 alone, closes the other three without a call. *)
let test_verify_core_closes_gaps () =
  with_log @@ fun path ->
  let w = St.create ~path (meta ~vars:[| 0; 1; 2 |] 3) in
  List.iter (fun s -> ignore (St.append w (c s))) [ "001"; "011"; "101"; "111" ];
  St.finalize w ~complete:true ();
  let rep =
    Verify.run ~cnf:(Dimacs.parse_string "p cnf 3 1\n3 0\n") (recover_exn path)
  in
  check_bool "ok" true (Verify.ok rep);
  check_int "4 soundness calls + 1 gap call" 5 rep.Verify.sat_calls

(* A projection that repeats x: positions 0 and 1 are both x. The log
   misses 111. The gap 01- assumes ~x and x, so its core must name both
   literals; a core of x alone would widen to -1- and close the gap 111
   without a call. *)
let test_verify_repeated_projection_var () =
  with_log @@ fun path ->
  let w = St.create ~path (meta ~vars:[| 0; 0; 1 |] 3) in
  List.iter (fun s -> ignore (St.append w (c s))) [ "000"; "001"; "110" ];
  St.finalize w ~complete:true ();
  (* no constraint: x = y = 1 is a solution *)
  let cnf = Dimacs.parse_string "p cnf 2 1\n1 -1 2 -2 0\n" in
  let rep = Verify.run ~cnf (recover_exn path) in
  check_bool "sound" true rep.Verify.sound;
  check_bool "rejected" false (Verify.ok rep);
  Alcotest.(check (option string))
    "the witness is the dropped minterm" (Some "111")
    (Option.map Cube.to_string rep.Verify.missing)

(* A lifted cube leaving 59 of 60 positions free: the descent splits
   only on the one position the cube fixes, so certification takes the
   soundness call plus a single gap call, not a walk over 2^59 regions. *)
let test_verify_wide_lifted_log () =
  with_log @@ fun path ->
  let vars = Array.init 60 Fun.id in
  let w = St.create ~path (meta ~vars 60) in
  ignore (St.append w (c (String.make 59 '-' ^ "1")));
  St.finalize w ~complete:true ();
  (* (x1 \/ x60) /\ (~x1 \/ x60): every solution sets x60 *)
  let cnf = Dimacs.parse_string "p cnf 60 2\n1 60 0\n-1 60 0\n" in
  let rep = Verify.run ~cnf (recover_exn path) in
  check_bool "ok" true (Verify.ok rep);
  check_bool "at most 2 sat calls" true (rep.Verify.sat_calls <= 2)

(* The count12 upper-half minterm log: 2,049 cubes, each checked by one
   soundness call, in the lexicographic order the blocking loop emits
   them. Consecutive calls share most of their assumptions, and the
   solver keeps the levels they share, so the verifier propagates less
   than half as many literals as when every call started from level 0.
   [parent_propagations] was measured with a solver that cancelled to
   level 0 after every call. *)
let test_verify_reuses_trail () =
  with_log @@ fun path ->
  let parent_propagations = 73_964 in
  let inst =
    Preimage.Instance.make
      (Ps_gen.Counters.binary ~bits:12 ())
      (Ps_gen.Targets.upper_half ~bits:12)
  in
  let cnf =
    Ps_sat.Cnf.add_clause inst.Preimage.Instance.cnf
      [ Ps_sat.Lit.pos inst.Preimage.Instance.root ]
  in
  let proj = inst.Preimage.Instance.proj in
  let w =
    St.create ~path
      (meta ~vars:(Array.copy proj.Project.vars) (Project.width proj))
  in
  let solver = Solver.create () in
  ignore (Solver.load solver cnf);
  let r = Blocking.enumerate ~sink:(St.sink w) solver proj in
  St.finalize w ~complete:(Run.complete r) ();
  let rep = Verify.run ~cnf (recover_exn path) in
  check_bool "ok" true (Verify.ok rep);
  check_int "cubes" 2049 rep.Verify.cubes;
  check_bool "at most half the parent's propagations" true
    (2 * rep.Verify.propagations <= parent_propagations)

let test_verify_rejects_unsound_cube () =
  with_log @@ fun path ->
  (* "00--" violates (v1 \/ v2): no minterm of it is a solution *)
  store_cubes path (enumerate_probe () @ [ c "00--" ]) ~complete:true;
  let r = recover_exn path in
  let rep = Verify.run ~cnf:(Dimacs.parse_string probe_cnf) r in
  check_bool "unsound detected" false rep.Verify.sound;
  Alcotest.(check (list string))
    "the culprit" [ "00--" ]
    (cube_strings rep.Verify.unsound);
  check_bool "rejected" false (Verify.ok rep)

let test_verify_rejects_torn_log () =
  with_log @@ fun path ->
  store_cubes path (enumerate_probe ()) ~complete:true;
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 2));
  let r = recover_exn path in
  check_bool "torn log refused" true (Verify.certifiable r <> None)

let test_verify_rejects_incomplete_log () =
  with_log @@ fun path ->
  store_cubes path (enumerate_probe ()) ~complete:false;
  let r = recover_exn path in
  check_bool "complete=false refused" true (Verify.certifiable r <> None)

(* --- allsat resume equivalence ------------------------------------------- *)

let test_allsat_resume_equivalence () =
  with_log @@ fun path ->
  let full = enumerate_probe () in
  (* first run, killed mid-stream: store some cubes, tear the tail *)
  let w = St.create ~checkpoint_every:4 ~path (meta ~vars:[| 0; 1; 2; 3 |] 4) in
  let solver = Solver.create () in
  ignore (Solver.load solver (Dimacs.parse_string probe_cnf));
  ignore (Blocking.enumerate ~limit:6 ~sink:(St.sink w) solver probe_proj);
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 5));
  (* resume: block the recovered prior, enumerate the rest *)
  match St.resume ~checkpoint_every:4 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      check_bool "recovered a strict prefix" true
        (List.length r.St.cubes < List.length full);
      let solver2 = Solver.create () in
      ignore (Solver.load solver2 (Dimacs.parse_string probe_cnf));
      List.iter
        (fun cb ->
          ignore
            (Solver.add_clause solver2 (Project.blocking_clause probe_proj cb)))
        r.St.cubes;
      let r2 = Blocking.enumerate ~sink:(St.sink w2) solver2 probe_proj in
      St.finalize w2 ~complete:true ();
      check_bool "second run complete" true (Run.complete r2);
      check_bool "prior + rest covers exactly the solution set" true
        (Cube_set.equal_union 4 full (r.St.cubes @ r2.Run.cubes));
      (* and the resumed log itself passes independent certification *)
      let rec_log = recover_exn path in
      check_bool "resumed log certifiable" true
        (Verify.certifiable rec_log = None);
      check_bool "resumed log verified" true
        (Verify.ok (Verify.run ~cnf:(Dimacs.parse_string probe_cnf) rec_log))

(* A resumed run blocks the recovered cubes as blocking clauses, not as
   problem clauses: with more of them than the formula has clauses, it
   starts in the chronological phase at once. *)
let test_allsat_resume_goes_chronological () =
  with_log @@ fun path ->
  let full = enumerate_probe () in
  let cnf = Dimacs.parse_string probe_cnf in
  let w = St.create ~path (meta ~vars:[| 0; 1; 2; 3 |] 4) in
  let solver = Solver.create () in
  ignore (Solver.load solver cnf);
  ignore (Blocking.enumerate ~limit:7 ~sink:(St.sink w) solver probe_proj);
  St.finalize w ~complete:false ();
  match St.resume ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      check_bool "more prior cubes than clauses" true
        (List.length r.St.cubes > List.length cnf.Ps_sat.Cnf.clauses);
      let solver2 = Solver.create () in
      ignore (Solver.load solver2 cnf);
      let r2 =
        Blocking.enumerate ~prior:r.St.cubes ~sink:(St.sink w2) solver2
          probe_proj
      in
      St.finalize w2 ~complete:(Run.complete r2) ();
      check_bool "resumed run complete" true (Run.complete r2);
      check_bool "reached the chronological phase" true
        (Ps_util.Stats.get r2.Run.stats "chrono_cubes" > 0);
      check_int "no prior cube reported again"
        (List.length full - List.length r.St.cubes)
        (List.length r2.Run.cubes);
      check_bool "prior + rest is the uninterrupted cover" true
        (Cube_set.equal_union 4 full (r.St.cubes @ r2.Run.cubes));
      check_bool "resumed log verified" true
        (Verify.ok (Verify.run ~cnf (recover_exn path)))

(* --- reach store / resume ------------------------------------------------ *)

let reach_circuit = lazy (Lazy.force (Ps_gen.Suite.find "count4").circuit)

let reach_target nstate = Ps_gen.Targets.value ~bits:nstate 0

let frame_key (f : Preimage.Reach_inc.frame) =
  ( f.Preimage.Reach_inc.index,
    f.Preimage.Reach_inc.frontier_cubes,
    f.Preimage.Reach_inc.new_cubes,
    f.Preimage.Reach_inc.frontier_states,
    f.Preimage.Reach_inc.total_states )

let step_key (s : Preimage.Reach.step) =
  ( s.Preimage.Reach.index,
    s.Preimage.Reach.frontier_cubes,
    s.Preimage.Reach.frontier_states,
    s.Preimage.Reach.total_states )

let test_reach_inc_kill_resume () =
  with_log @@ fun path ->
  let module RI = Preimage.Reach_inc in
  let circuit = Lazy.force reach_circuit in
  let nstate = List.length (Ps_circuit.Netlist.latches circuit) in
  let target = reach_target nstate in
  let straight = RI.run ~max_steps:40 circuit target in
  check_bool "fixture reaches fixpoint" true straight.RI.fixpoint;
  (* killed run: a few frames persisted, writer abandoned, tail torn *)
  let w = St.create ~checkpoint_every:0 ~path (meta nstate) in
  let partial = RI.run ~max_steps:2 ~store:w circuit target in
  check_bool "partial stopped early" false partial.RI.fixpoint;
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  match St.resume ~checkpoint_every:0 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      let resumed = RI.run ~max_steps:40 ~store:w2 ~resume:r circuit target in
      St.finalize w2 ~complete:resumed.RI.fixpoint ();
      check_bool "resumed reaches fixpoint" true resumed.RI.fixpoint;
      check_bool "same total states" true
        (resumed.RI.total_states = straight.RI.total_states);
      check_int "same layer count"
        (List.length straight.RI.layers)
        (List.length resumed.RI.layers);
      Alcotest.(check int)
        "same frame count"
        (List.length straight.RI.frames)
        (List.length resumed.RI.frames);
      check_bool "frames bit-identical (mod timing/solver luck)" true
        (List.map frame_key straight.RI.frames
        = List.map frame_key resumed.RI.frames);
      (* the log of the killed+resumed session is a frame-for-frame
         record: one frame checkpoint per fixpoint frame, plus frame 0 *)
      let r2 = recover_exn path in
      let frame_cks =
        List.filter (fun (ck, _) -> ck.St.kind = "frame") r2.St.segments
      in
      check_int "one checkpoint per frame"
        (List.length straight.RI.frames + 1)
        (List.length frame_cks)

(* A killed and resumed session on a wide frontier (johnson8, upper-half
   target), where each SAT model is lifted into a multi-state cube. The
   reached set, layers and steps must match an uninterrupted run; the
   search statistics need not. [new_cubes], [sat_calls] and [conflicts]
   depend on the search once cubes are lifted: a resumed session blocks
   the log's canonical BDD cubes, not the lifted cubes the killed session
   blocked, so its later frames see a different clause set. *)
let test_reach_inc_wide_kill_resume () =
  with_log @@ fun path ->
  let module RI = Preimage.Reach_inc in
  let circuit = Lazy.force (Ps_gen.Suite.find "johnson8").circuit in
  let target = Ps_gen.Targets.upper_half ~bits:8 in
  let straight = RI.run circuit target in
  check_bool "fixture reaches fixpoint" true straight.RI.fixpoint;
  check_bool "fixture takes several frames" true
    (List.length straight.RI.frames > 2);
  let w = St.create ~checkpoint_every:0 ~path (meta 8) in
  let _ = RI.run ~max_steps:1 ~store:w circuit target in
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  match St.resume ~checkpoint_every:0 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      let resumed = RI.run ~store:w2 ~resume:r circuit target in
      St.finalize w2 ~complete:resumed.RI.fixpoint ();
      check_bool "resumed reaches fixpoint" true resumed.RI.fixpoint;
      let cubes f =
        let acc = ref [] in
        Ps_bdd.Bdd.iter_cubes f ~nvars:8 (fun p -> acc := p :: !acc);
        !acc
      in
      check_bool "same reached set" true
        (cubes straight.RI.reached = cubes resumed.RI.reached);
      check_bool "same layers" true
        (List.map cubes straight.RI.layers = List.map cubes resumed.RI.layers);
      let key (f : RI.frame) =
        (f.RI.index, f.RI.frontier_cubes, f.RI.frontier_states, f.RI.total_states)
      in
      check_bool "same steps" true
        (List.map key straight.RI.frames = List.map key resumed.RI.frames)

let test_reach_backward_kill_resume () =
  with_log @@ fun path ->
  let module R = Preimage.Reach in
  let circuit = Lazy.force reach_circuit in
  let nstate = List.length (Ps_circuit.Netlist.latches circuit) in
  let target = reach_target nstate in
  let straight = R.backward ~engine:R.E_sds ~max_steps:40 circuit target in
  let w = St.create ~checkpoint_every:0 ~path (meta nstate) in
  let _ = R.backward ~engine:R.E_sds ~max_steps:2 ~store:w circuit target in
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  match St.resume ~checkpoint_every:0 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, w2) ->
      let resumed =
        R.backward ~engine:R.E_sds ~max_steps:40 ~store:w2 ~resume:r circuit
          target
      in
      St.finalize w2 ~complete:resumed.R.fixpoint ();
      check_bool "resumed reaches fixpoint" true resumed.R.fixpoint;
      check_bool "same total states" true
        (resumed.R.total_states = straight.R.total_states);
      check_bool "steps bit-identical (mod timing)" true
        (List.map step_key straight.R.steps
        = List.map step_key resumed.R.steps)

(* One frame loop serves every engine, so a log killed under one engine
   resumes under another: the steps, layers and reached set must be an
   uninterrupted run's. *)
let test_reach_cross_engine_resume () =
  let module R = Preimage.Reach in
  let circuit = Lazy.force reach_circuit in
  let nstate = List.length (Ps_circuit.Netlist.latches circuit) in
  let target = reach_target nstate in
  let cubes f = Preimage.Reach_inc.cubes_of_bdd f ~width:nstate in
  List.iter
    (fun (a, b) ->
      with_log @@ fun path ->
      let name = R.engine_name a ^ " -> " ^ R.engine_name b in
      let straight = R.backward ~engine:b circuit target in
      let w = St.create ~checkpoint_every:0 ~path (meta nstate) in
      let _ = R.backward ~engine:a ~max_steps:2 ~store:w circuit target in
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes - 3));
      match St.resume ~checkpoint_every:0 ~path () with
      | Error e -> Alcotest.fail e
      | Ok (r, w2) ->
        let resumed = R.backward ~engine:b ~store:w2 ~resume:r circuit target in
        St.finalize w2 ~complete:resumed.R.fixpoint ();
        check_bool (name ^ ": fixpoint") true resumed.R.fixpoint;
        check_bool (name ^ ": same steps") true
          (List.map step_key straight.R.steps
          = List.map step_key resumed.R.steps);
        check_bool (name ^ ": same layers") true
          (List.map cubes straight.R.layers = List.map cubes resumed.R.layers);
        check_bool (name ^ ": same reached set") true
          (cubes straight.R.reached = cubes resumed.R.reached))
    [
      (R.E_sds, R.E_incremental);
      (R.E_incremental, R.E_bdd);
      (R.E_blocking_lift, R.E_sds_dynamic);
    ]

let test_reach_resume_rejects_wrong_target () =
  with_log @@ fun path ->
  let module RI = Preimage.Reach_inc in
  let circuit = Lazy.force reach_circuit in
  let nstate = List.length (Ps_circuit.Netlist.latches circuit) in
  let w = St.create ~checkpoint_every:0 ~path (meta nstate) in
  let _ = RI.run ~max_steps:2 ~store:w circuit (reach_target nstate) in
  match St.resume ~checkpoint_every:0 ~path () with
  | Error e -> Alcotest.fail e
  | Ok (r, _) ->
      let other = Ps_gen.Targets.value ~bits:nstate 3 in
      check_bool "wrong target refused" true
        (try
           ignore (RI.run ~max_steps:40 ~resume:r circuit other);
           false
         with Invalid_argument _ -> true)

(* --- satellite 1: trie-backed reduce ------------------------------------- *)

(* The displaced O(n^2) implementation, kept as the test oracle. *)
let old_reduce cubes =
  let cubes = List.sort_uniq Cube.compare cubes in
  List.filter
    (fun cb ->
      not
        (List.exists
           (fun d -> (not (Cube.equal d cb)) && Cube.subsumes d cb)
           cubes))
    cubes

let cube_of_int width x =
  let b = Bytes.make width '-' in
  let x = ref x in
  for i = 0 to width - 1 do
    (match !x mod 3 with
    | 0 -> Bytes.set b i '0'
    | 1 -> Bytes.set b i '1'
    | _ -> ());
    x := !x / 3
  done;
  Cube.of_string (Bytes.to_string b)

let arb_cube_list =
  QCheck.(
    pair (int_range 1 6) (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000)))

let test_reduce_matches_old =
  Helpers.qtest "trie reduce = quadratic reduce" ~count:300 arb_cube_list
    (fun (width, codes) ->
      let cubes = List.map (cube_of_int width) codes in
      old_reduce cubes = Cube_set.reduce cubes)

let test_reduce_preserves_union =
  Helpers.qtest "reduce preserves the union" ~count:200 arb_cube_list
    (fun (width, codes) ->
      let cubes = List.map (cube_of_int width) codes in
      cubes = [] || Cube_set.equal_union width cubes (Cube_set.reduce cubes))

let test_trie_basics () =
  let t = Cube_trie.create 3 in
  check_bool "add new" true (Cube_trie.add t (c "1-0"));
  check_bool "add dup" false (Cube_trie.add t (c "1-0"));
  check_int "count" 1 (Cube_trie.count t);
  check_bool "mem" true (Cube_trie.mem t (c "1-0"));
  check_bool "not mem" false (Cube_trie.mem t (c "110"));
  check_bool "subsumed specialization" true (Cube_trie.subsumed t (c "110"));
  check_bool "self subsumed (non-strict)" true (Cube_trie.subsumed t (c "1-0"));
  check_bool "self not subsumed (strict)" false
    (Cube_trie.subsumed ~strict:true t (c "1-0"));
  check_bool "generalization not subsumed" false (Cube_trie.subsumed t (c "1--"));
  check_bool "insert subsumed" false (Cube_trie.insert t (c "100"));
  check_bool "insert fresh" true (Cube_trie.insert t (c "0--"));
  check_int "count after inserts" 2 (Cube_trie.count t)

(* --- satellite 2: checked union counts ----------------------------------- *)

let test_union_count_checked () =
  let open Cube_set in
  let small = union_count_checked 4 [ c "1---"; c "01--" ] in
  check_bool "width 4 exact" true small.exact;
  check_bool "width 4 value" true (small.value = 12.0);
  let edge = union_count_checked 53 [ Cube.make 53 ] in
  check_bool "width 53 still exact" true edge.exact;
  check_bool "width 53 value" true (edge.value = Float.pow 2.0 53.0);
  let big = union_count_checked 60 [ Cube.make 60 ] in
  check_bool "width 60 flagged inexact" false big.exact;
  check_bool "width 60 value" true (big.value = Float.pow 2.0 60.0);
  (* 2^60 - 1: all states except the all-zeros minterm -- the example
     where the plain float count silently lies *)
  let near_full =
    List.init 60 (fun i ->
        let b = Bytes.make 60 '-' in
        for j = 0 to i - 1 do
          Bytes.set b j '0'
        done;
        Bytes.set b i '1';
        Cube.of_string (Bytes.to_string b))
  in
  let nf = union_count_checked 60 near_full in
  check_bool "2^60-1 flagged inexact" false nf.exact;
  check_bool "2^60-1 near the true count" true
    (nf.value >= Float.pow 2.0 60.0 -. 2.0 && nf.value <= Float.pow 2.0 60.0);
  (* beyond float range: clamped, never infinite *)
  let huge = union_count_checked 2000 [ Cube.make 2000 ] in
  check_bool "huge clamped finite" true (Float.is_finite huge.value);
  check_bool "huge flagged inexact" false huge.exact

(* --- parallel producer through the sink ---------------------------------- *)

let test_parallel_store_verified () =
  with_log @@ fun path ->
  let cnf = Dimacs.parse_string probe_cnf in
  let w = St.create ~path (meta ~vars:[| 0; 1; 2; 3 |] 4) in
  let run_shard ~prefix ~limit ~budget ~trace =
    let solver = Solver.create () in
    ignore (Solver.load solver cnf);
    List.iter
      (fun lit -> ignore (Solver.add_clause solver [ lit ]))
      (Project.lits_of_cube probe_proj prefix);
    Blocking.enumerate ?limit ?budget ~trace solver probe_proj
  in
  let r =
    Ps_allsat.Parallel.run ~jobs:2 ~split_depth:2 ~sink:(St.sink w) ~width:4
      ~run_shard ()
  in
  St.finalize w ~complete:(Run.complete r) ();
  check_bool "parallel complete" true (Run.complete r);
  check_bool "no shard files left" true
    (Sys.readdir (Filename.dirname path)
    |> Array.for_all (fun f ->
           not
             (String.length f > String.length (Filename.basename path)
             && String.sub f 0 (String.length (Filename.basename path))
                = Filename.basename path)));
  let rec_log = recover_exn path in
  check_bool "merged stream equals solution set" true
    (Cube_set.equal_union 4 (enumerate_probe ()) rec_log.St.cubes);
  check_bool "parallel log verified" true
    (Verify.ok (Verify.run ~cnf rec_log))

let () =
  Alcotest.run "store"
    [
      ( "format",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "subsumption on write" `Quick
            test_subsumption_on_write;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "truncate at every offset" `Quick
            test_truncate_every_offset;
          Alcotest.test_case "flip every byte" `Quick test_flip_every_byte;
          Alcotest.test_case "resume after torn tail" `Quick
            test_resume_after_torn_tail;
          Alcotest.test_case "shard lifecycle" `Quick test_shard_lifecycle;
          Alcotest.test_case "shard consolidation on resume" `Quick
            test_shard_consolidation_on_resume;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts a good log" `Quick
            test_verify_accepts_good_log;
          Alcotest.test_case "rejects a missing cube" `Quick
            test_verify_rejects_missing_cube;
          Alcotest.test_case "rejects an unsound cube" `Quick
            test_verify_rejects_unsound_cube;
          Alcotest.test_case "rejects a torn log" `Quick
            test_verify_rejects_torn_log;
          Alcotest.test_case "rejects an incomplete log" `Quick
            test_verify_rejects_incomplete_log;
          Alcotest.test_case "60-wide lifted log in two calls" `Quick
            test_verify_wide_lifted_log;
          Alcotest.test_case "a proven gap closes later gaps" `Quick
            test_verify_core_closes_gaps;
          Alcotest.test_case "repeated projection variable" `Quick
            test_verify_repeated_projection_var;
          Alcotest.test_case "reused trail halves propagations" `Quick
            test_verify_reuses_trail;
        ] );
      ( "resume",
        [
          Alcotest.test_case "allsat kill + resume = full cover" `Quick
            test_allsat_resume_equivalence;
          Alcotest.test_case "allsat resume drains chronologically" `Quick
            test_allsat_resume_goes_chronological;
          Alcotest.test_case "reach_inc kill + resume bit-identical" `Quick
            test_reach_inc_kill_resume;
          Alcotest.test_case "reach_inc wide-frontier kill + resume" `Quick
            test_reach_inc_wide_kill_resume;
          Alcotest.test_case "reach backward kill + resume bit-identical"
            `Quick test_reach_backward_kill_resume;
          Alcotest.test_case "resume rejects a mismatched target" `Quick
            test_reach_resume_rejects_wrong_target;
          Alcotest.test_case "parallel producer, stored and verified" `Quick
            test_parallel_store_verified;
          Alcotest.test_case "reach cross-engine kill + resume" `Quick
            test_reach_cross_engine_resume;
        ] );
      ( "cube_set",
        [
          Alcotest.test_case "trie basics" `Quick test_trie_basics;
          test_reduce_matches_old;
          test_reduce_preserves_union;
          Alcotest.test_case "union_count_checked" `Quick
            test_union_count_checked;
        ] );
    ]
