(** Named counters for instrumenting engines.

    A [Stats.t] is a mutable bag of named integer counters; engines
    expose one in their results so benchmarks can report propagation
    counts, SAT calls, cache hits, etc. *)

type t

val create : unit -> t

(** [add t name n] adds [n] to counter [name]. *)
val add : t -> string -> int -> unit

(** [set_max t name n] sets counter [name] to [max current n]. *)
val set_max : t -> string -> int -> unit

(** [get t name] is the counter value, 0 when never touched. *)
val get : t -> string -> int

(** [counters t] is the sorted association list of all counters. *)
val counters : t -> (string * int) list

(** [merge ~into src] adds all of [src]'s counters into [into]. *)
val merge : into:t -> t -> unit

(** [sum ts] is a fresh bag holding the element-wise sum of [ts].

    A [Stats.t] is {e not} internally synchronized: the multicore
    discipline is one private bag per worker domain, summed by the
    spawning domain {e after} [Domain.join] (which provides the
    happens-before edge). {!Ps_allsat.Parallel} merges per-shard stats
    this way. *)
val sum : t list -> t
