(** Indexed binary max-heap over integer elements [0 .. n-1].

    Elements are ordered by a caller-owned score array read at comparison
    time, so scores may change while an element is outside the heap; for
    in-heap score increases call {!decrease} (named after the MiniSat
    convention: the element moved {e up}). Used for VSIDS variable
    ordering in the SAT solver. No operation allocates except when a
    table grows. *)

type t

(** [create ~score] is an empty heap ordering element [x] by
    [!score.(x)] (greater score = higher priority; ties break exactly as
    in MiniSat's swap-based heap). The reference is read at every
    comparison, so the owner may replace the array when it grows; it
    must cover every element in the heap. *)
val create : score:float array ref -> t

val size : t -> int
val is_empty : t -> bool

(** [mem h x] is [true] iff [x] is currently in the heap. *)
val mem : t -> int -> bool

(** [insert h x] inserts [x]; no-op if already present. *)
val insert : t -> int -> unit

(** [remove_max h] pops the element with the greatest score.
    Raises [Not_found] when empty. *)
val remove_max : t -> int

(** [decrease h x] restores the heap property after [score x] increased
    (the element percolates toward the root). No-op when [x] not in heap. *)
val decrease : t -> int -> unit
