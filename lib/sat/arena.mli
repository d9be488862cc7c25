(** Flat clause arena.

    All clause literals of a solver live in one contiguous growable
    [int] array; a clause is an integer offset ({!Cref.t}) into it. Each
    clause is a block of [{!header_words} + size] words:

    {v
      word 0   size lsl 3  lor  relocated lsl 2  lor  dead lsl 1  lor  learnt
      word 1   activity (float bits, lsr 1)  --  forward Cref during GC
      word 2+  the literals (Lit.t), watched literals at slots 0 and 1
    v}

    Freeing a clause only sets its dead bit and accounts the block as
    wasted; the memory is reclaimed by a copying collection pass driven
    by the solver: every reference site calls {!reloc}, which moves the
    block into a fresh arena on first touch and leaves a forwarding
    pointer (the relocation mark) for later touches. Activities ride in
    the header (one mantissa bit of precision is sacrificed to fit the
    float into a 63-bit immediate), so a relocated clause keeps its
    activity without any side table. *)

module Cref : sig
  (** A clause reference: the word offset of the clause header. *)
  type t = int

  (** Distinguished "no clause" value (never a valid offset). *)
  val undef : t
end

type t

(** Words of header before the literals of every clause. *)
val header_words : int

(** [create ?capacity ()] is an empty arena with room for [capacity]
    words (default 16). *)
val create : ?capacity:int -> unit -> t

(** [reserve t n] makes room for [n] more words at once, growing the
    storage to exactly [len t + n] words when it is smaller. *)
val reserve : t -> int -> unit

(** [alloc t ~learnt lits size] appends a clause block holding the first
    [size] literals of [lits] and returns its reference. Raises
    [Invalid_argument] when [size] is below two (unit and empty clauses
    never reach the arena). *)
val alloc : t -> learnt:bool -> Lit.t array -> int -> Cref.t

(** [free t cr] marks the clause dead and accounts its block as wasted.
    The block stays walkable until the next {!reloc} pass. *)
val free : t -> Cref.t -> unit

val size : t -> Cref.t -> int
val learnt : t -> Cref.t -> bool
val dead : t -> Cref.t -> bool
val lit : t -> Cref.t -> int -> Lit.t
val lits : t -> Cref.t -> Lit.t array
val activity : t -> Cref.t -> float
val set_activity : t -> Cref.t -> float -> unit

(** Total words in use (live + wasted). *)
val len : t -> int

(** Words in dead blocks. *)
val wasted : t -> int

(** [len t - wasted t]. *)
val live_words : t -> int

(** Collection trigger: more than 20% of the arena is dead blocks. *)
val should_gc : t -> bool

(** [reloc ~from ~into cr] copies the block at [cr] into [into] on first
    touch (marking [cr] relocated in [from] and storing the forward
    reference), and returns the forward reference on every touch. The
    caller must visit {e every} live reference site, then discard
    [from]. *)
val reloc : from:t -> into:t -> Cref.t -> Cref.t

(** [iter_live f t] calls [f cr] on every live (not dead) clause, in
    address order. Only valid between collections (no relocation marks
    present). *)
val iter_live : (Cref.t -> unit) -> t -> unit

(** {2 Hot-path raw access}

    The propagation inner loop reads literals straight out of the
    backing array to keep clause access branch- and allocation-free.
    The array is invalidated by any [alloc] (growth) or [reloc]
    (replacement) — re-fetch it after either. *)

val raw : t -> int array

(** [raw_size data cr] decodes the clause size from a {!raw} array. *)
val raw_size : int array -> Cref.t -> int
