(** Imperative netlist construction.

    The builder allocates nets one at a time and freezes into a validated
    {!Netlist.t}. Latches may be declared before their data nets exist
    (two-phase: {!latch} then {!set_latch_data}), which is how feedback
    loops through state are expressed. *)

type t

val create : unit -> t

(** [of_netlist n] is a builder pre-populated with all of [n]'s nets and
    outputs; net indices are preserved, so new logic can reference the
    original nets. Used to graft target logic onto a circuit. *)
val of_netlist : Netlist.t -> t

(** [input b name] allocates a primary input. *)
val input : t -> string -> int

(** [latch b ?init name] allocates a DFF output net with an unconnected
    data input; connect it later with {!set_latch_data}. *)
val latch : t -> ?init:bool -> string -> int

(** [set_latch_data b l data] connects latch [l]'s data input. *)
val set_latch_data : t -> int -> int -> unit

(** [gate b ?name kind fanins] allocates a gate net. Unnamed gates get a
    fresh ["_n<i>"] name. *)
val gate : t -> ?name:string -> Gate.kind -> int list -> int

(** Convenience wrappers around {!gate}. *)

val not_ : t -> ?name:string -> int -> int
val buf : t -> ?name:string -> int -> int
val and_ : t -> ?name:string -> int list -> int
val or_ : t -> ?name:string -> int list -> int
val nor_ : t -> ?name:string -> int list -> int
val xor_ : t -> ?name:string -> int list -> int
val xnor_ : t -> ?name:string -> int list -> int
val const0 : t -> ?name:string -> unit -> int
val const1 : t -> ?name:string -> unit -> int

(** [mux b ~sel ~if1 ~if0] is [sel ? if1 : if0] built from basic gates. *)
val mux : t -> sel:int -> if1:int -> if0:int -> int

(** [output b net] marks [net] as a primary output. *)
val output : t -> int -> unit

(** [fresh_name b prefix] is a name not yet used in the builder. *)
val fresh_name : t -> string -> string

(** [finalize b] validates and freezes. Raises [Invalid_argument] when a
    latch was never connected or the netlist is malformed. *)
val finalize : t -> Netlist.t
