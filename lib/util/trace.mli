(** Structured trace events for the solving layers.

    Every solving layer emits typed {!event}s into a {!sink}: the CDCL
    solver reports restarts and learnt-DB reductions, the enumeration
    engines report emitted cubes, memo hits and phase changes, and every
    budgeted run reports how it stopped. Sinks are pluggable — the
    {!null} sink makes emission free, {!jsonl} streams machine-readable
    logs (one JSON object per line, schema in docs/OBSERVABILITY.md),
    and {!callback} hands each event to a function.

    Events are timestamped with seconds elapsed since the sink was
    created, so one sink shared across engines yields one coherent
    timeline. *)

type event =
  | Restart of { conflicts : int; learnts : int }
      (** solver restart; cumulative conflicts, live learnt clauses *)
  | Reduce_db of { before : int; after : int }
      (** learnt-DB reduction: live learnt clauses before/after *)
  | Gc of { before_words : int; after_words : int }
      (** clause-arena compaction: arena words before/after *)
  | Solve of { result : string; conflicts : int }
      (** one CDCL [solve] call finished ("sat"/"unsat"/"unknown") *)
  | Cube of { index : int; fixed : int; width : int }
      (** enumeration emitted its [index]-th cube ([fixed] fixed
          literals out of [width] projection positions) *)
  | Memo_hit of { depth : int; hits : int }
      (** SDS success-driven learning reused a subgraph *)
  | Phase of { engine : string; phase : string }
      (** engine phase marker, e.g. ["sds"]/["start"] *)
  | Shard_start of { shard : string; depth : int }
      (** a parallel worker picked up a guiding-path shard ([shard] is
          the prefix cube in positional notation, [depth] its number of
          fixed split positions) *)
  | Shard_done of {
      shard : string;
      cubes : int;
      conflicts : int;
      stopped : string;
    }
      (** a shard's enumeration finished: cubes found, SAT conflicts
          spent, and the shard's own stop reason *)
  | Stopped of { reason : string }
      (** why the run ended (a {!Budget.stop} name or ["complete"]) *)
  | Frame_start of { index : int; frontier_cubes : int; learnts : int }
      (** a reachability fixpoint frame began: 1-based frame index, the
          number of frontier cubes handed to this frame's preimage, and
          the learnt clauses already live in the (incremental) solver —
          the knowledge carried over from earlier frames *)
  | Frame_done of {
      index : int;
      new_cubes : int;
      blocked : int;
      sat_calls : int;
      conflicts : int;
    }
      (** the frame finished: states newly added to the reached set, the
          blocking clauses added {e this frame} (never the whole reached
          set — see docs/ALGORITHMS.md §11), and the frame's SAT
          calls/conflicts *)
  | Store_open of { path : string; cubes : int; resumed : bool }
      (** a solution store was created or recovered: [cubes] already in
          the log ([0] for a fresh store), [resumed] when the log was
          recovered and reopened for append *)
  | Checkpoint of { frame : int; cubes : int; bytes : int }
      (** a durable checkpoint record was written (and the log flushed):
          reachability frame index (or a sequence number for allsat
          logs), kept cubes so far, and the log size in bytes *)
  | Store_verified of {
      cubes : int;
      witnessed : int;
      sound : bool;
      complete : bool;
    }
      (** the independent cover certification finished: [witnessed] —
          cubes certified by their witness, without a SAT call;
          [sound] — every minterm of every stored cube is a solution;
          [complete] — formula ∧ ¬(∪ cubes) is unsatisfiable *)

val event_name : event -> string

(** [to_json ~time_s ev] is the JSONL line body (no trailing newline):
    [{"t":<time_s>,"ev":"<name>",...fields}]. *)
val to_json : time_s:float -> event -> string

type sink

(** Drops everything; [emit null ev] is a no-op. *)
val null : sink

val is_null : sink -> bool

(** [callback f] calls [f ~time_s event] on every emission. *)
val callback : (time_s:float -> event -> unit) -> sink

(** [jsonl oc] writes one JSON line per event to [oc]. The channel is
    flushed on every {!Stopped} event (and left open — the caller owns
    it). *)
val jsonl : out_channel -> sink

(** [jsonl_file path] opens [path] for writing and returns the sink
    plus a closer. *)
val jsonl_file : string -> sink * (unit -> unit)

(** [locked s] serializes emissions into [s] with a mutex, making one
    sink shareable by several worker domains (JSONL lines never
    interleave). The null sink stays null — locking is only paid when
    tracing is on. *)
val locked : sink -> sink

val emit : sink -> event -> unit
