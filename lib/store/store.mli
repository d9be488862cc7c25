(** Crash-safe streaming solution store.

    An append-only binary log of enumerated solution cubes, durable at
    record granularity: the file starts with the magic ["PSTORE1\n"],
    followed by {!Record} frames — one ['M'] meta record describing the
    run, one ['C'] or ['W'] record per cube, and ['K'] checkpoint
    records marking consistent prefixes. A ['C'] record carries one
    positional cube; a ['W'] record carries the cube followed by its
    {!Ps_allsat.Witness} (the packed values of the formula's other
    variables in the model the cube was cut from), so that [verify] can
    certify the cube without a solver. Every record is
    CRC-guarded, and the writer flushes after each one, so a SIGKILL
    (or power cut) loses at most the in-flight record and a torn or
    bit-flipped tail is always {e detected}, never silently accepted:
    recovery rolls back to the last valid checkpoint.

    {b Write-time subsumption.} The writer keeps a ternary
    {!Ps_allsat.Cube_trie} of everything logged so far and drops an
    appended cube that is a duplicate of — or subsumed by — an existing
    one. The log therefore stores an irredundant cover; dropping a
    subsumed cube never loses states (the subsuming cube's blocking
    clause implies the dropped one's).

    {b Checkpoints} carry a kind (["start"] at creation, ["auto"] every
    [checkpoint_every] kept cubes, ["frame"] per reachability frame,
    ["resume"] after a crash recovery, ["final"] at {!finalize}), an
    optional frame number, the kept-cube count, a completeness flag,
    and arbitrary integer/float stat snapshots (floats round-trip
    exactly via [%h] hex notation). Recovery segments the cube stream
    by checkpoint, which is how a reachability session rebuilds its
    per-frame layers.

    {b Shard sub-logs} ([<path>.shard-<prefix>]) are whole mini-logs
    written atomically (tmp + rename) by {!Ps_allsat.Parallel} workers
    as each guiding-path shard completes; distinct prefixes mean
    distinct files, so concurrent workers never collide. They keep the
    witnesses of their cubes. A clean
    {!finalize} deletes them (the merged stream is already in the main
    log); after a crash, {!resume} consolidates survivors into the main
    log in prefix order — deterministic — and removes them. *)

type meta = {
  engine : string;  (** producer kind, e.g. ["allsat"] or ["reach"] *)
  width : int;  (** cube width = number of projection positions *)
  vars : int array;
      (** projection CNF variables in enumeration order ([[||]] when the
          producer is not CNF-based) *)
  source : string;  (** input problem path, informational *)
  source_crc : int;
      (** {!Crc32.file} of the source, [0] when unknown — lets [verify]
          refuse to certify a log against the wrong formula *)
}

type checkpoint = {
  kind : string;
  frame : int;  (** reachability frame, [-1] otherwise *)
  cubes : int;  (** kept cubes at the moment of the checkpoint *)
  complete : bool;  (** final {e and} the enumeration was exhaustive *)
  ints : (string * int) list;
  floats : (string * float) list;
}

(** {1 Writing} *)

type writer

(** Monotone counters of one writer (or recovered region): [bytes] is
    the file size, [subsumed_on_write] counts appended cubes dropped by
    the trie. *)
type stats = {
  records : int;
  bytes : int;
  cubes : int;
  subsumed_on_write : int;
  checkpoints : int;
}

(** [create ~path meta] starts a fresh log (truncating any existing
    file): magic, meta record, and a ["start"] checkpoint — so recovery
    always has an anchor, even for a run killed before its first cube.
    [checkpoint_every] (default 256, [0] = off) inserts an ["auto"]
    checkpoint after that many kept cubes. Emits [Store_open]. *)
val create :
  ?checkpoint_every:int ->
  ?trace:Ps_util.Trace.sink ->
  path:string ->
  meta ->
  writer

(** [append ?witness w c] logs one cube, as a ['W'] record with
    [witness] when it is given and not empty, as a ['C'] record
    otherwise; [false] means the trie dropped it as duplicate/subsumed
    (nothing written). Flushes. Raises [Invalid_argument] on width
    mismatch or a closed writer. *)
val append : ?witness:Ps_allsat.Witness.t -> writer -> Ps_allsat.Cube.t -> bool

(** [checkpoint w ()] writes a checkpoint record carrying the current
    kept-cube count. Defaults: [kind = "auto"], [frame = -1],
    [complete = false], empty stat lists. Emits [Checkpoint]. *)
val checkpoint :
  ?kind:string ->
  ?frame:int ->
  ?complete:bool ->
  ?ints:(string * int) list ->
  ?floats:(string * float) list ->
  writer ->
  unit ->
  unit

(** [finalize w ~complete ()] writes the ["final"] checkpoint, closes
    the file, and deletes any shard sub-logs. [complete] asserts the
    enumeration was exhaustive — [verify] only certifies complete
    logs. *)
val finalize :
  ?ints:(string * int) list ->
  ?floats:(string * float) list ->
  writer ->
  complete:bool ->
  unit ->
  unit

(** [sink w] adapts the writer to the engines' per-cube stream:
    [on_cube] is {!append}, logging the cube with its witness when it
    has one; [on_shard] writes an atomic shard sub-log of the shard's
    cubes and witnesses. *)
val sink : writer -> Ps_allsat.Run.sink

val stats : writer -> stats
val path : writer -> string

(** {1 Recovery} *)

type recovered = {
  meta : meta;
  cubes : Ps_allsat.Cube.t list;
      (** all cubes of the recovered region, in log order *)
  witnesses : Ps_allsat.Witness.t option list;
      (** the witness of each of [cubes], same order ([None] for a
          ['C'] record) *)
  segments : (checkpoint * Ps_allsat.Cube.t list) list;
      (** every valid checkpoint in order, paired with the cubes logged
          since the previous checkpoint (the ["start"] checkpoint's
          segment is always [[]]) *)
  last : checkpoint;  (** the last valid checkpoint *)
  torn : bool;  (** a torn/corrupt tail was detected (and discarded) *)
  dropped_cubes : int;
      (** cubes after the last checkpoint, discarded by recovery *)
  valid_bytes : int;  (** file offset just past the last checkpoint *)
  rstats : stats;  (** counters over the recovered region *)
}

(** [recover ~path] replays the log read-only and returns the state at
    the last valid checkpoint. [Error] means the log is unusable (bad
    magic, no meta, or no surviving checkpoint); a damaged {e tail} is
    not an error — it sets [torn] and [dropped_cubes]. *)
val recover : path:string -> (recovered, string) result

(** [resume ~path ()] recovers, truncates the file back to
    [valid_bytes] (discarding the damaged tail for good), consolidates
    any shard sub-logs into the main log in prefix order, reopens for
    append, and writes a ["resume"] checkpoint. The returned
    [recovered] includes the consolidated shard cubes. Emits
    [Store_open] with [resumed = true]. Shard cubes keep their
    witnesses. *)
val resume :
  ?checkpoint_every:int ->
  ?trace:Ps_util.Trace.sink ->
  path:string ->
  unit ->
  (recovered * writer, string) result
