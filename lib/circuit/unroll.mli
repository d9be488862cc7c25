(** Time-frame expansion.

    [unroll n ~k] replicates the combinational core of a sequential
    netlist [k] times, wiring frame [t]'s latch inputs to frame [t+1]'s
    latch-output positions. The result is a purely combinational netlist
    whose inputs are the frame-0 present state plus one copy of the
    primary inputs per frame; the original latch-data functions appear as
    per-frame next-state nets. It is the frame expansion behind the
    k-step preimage (the [Kstep] module of the [preimage] library). *)

type t = {
  netlist : Netlist.t;          (** combinational; no latches *)
  state0 : int array;           (** frame-0 present-state nets (inputs) *)
  frame_inputs : int array array;  (** [frame_inputs.(t).(j)] = input [j] at frame [t] *)
  state_at : int array array;
      (** [state_at.(t).(i)] = net carrying state bit [i] {e entering}
          frame [t]; [state_at.(0) = state0], and [state_at.(k)] is the
          final next-state (the state after [k] steps) *)
}

(** [unroll n ~k] expands [k >= 1] frames.
    Raises [Invalid_argument] if [k < 1] or [n] has no latches. *)
val unroll : Netlist.t -> k:int -> t
