(** Growable arrays.

    [Vec] provides an amortized O(1) push, O(1) random access vector used
    throughout the solver for trails, watch lists and clause databases.
    Elements beyond [size] are garbage and must not be observed. *)

type 'a t

(** [create ~dummy] is an empty vector. [dummy] fills unused slots; it is
    never returned by accessors. *)
val create : dummy:'a -> 'a t

(** [make n x ~dummy] is a vector of [n] elements all equal to [x]. *)
val make : int -> 'a -> dummy:'a -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i] is the [i]-th element. Raises [Invalid_argument] when out of
    bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element. Raises
    [Invalid_argument] on an empty vector. *)
val pop : 'a t -> 'a

(** [last v] is the last element without removing it. *)
val last : 'a t -> 'a

(** [shrink v n] truncates [v] to its first [n] elements ([n <= size v]). *)
val shrink : 'a t -> int -> unit

val clear : 'a t -> unit

(** [grow_to v n x] extends [v] with copies of [x] until [size v >= n]. *)
val grow_to : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> dummy:'a -> 'a t

val copy : 'a t -> 'a t
