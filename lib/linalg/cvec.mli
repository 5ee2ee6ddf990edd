(** Dense complex vectors, the state-vector representation for the quantum
    simulator.  Same interleaved flat-Bigarray layout as {!Cmat}. *)

type t

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat backing store: [2 * dim] float64s, interleaved. *)

val dim : t -> int

val create : int -> t
(** Zero vector. *)

val basis : int -> int -> t
(** [basis n k] is the [n]-dimensional computational basis vector |k>. *)

val copy : t -> t

val get : t -> int -> Complex.t
val set : t -> int -> Complex.t -> unit

val of_array : Complex.t array -> t

val dot : t -> t -> Complex.t
(** [dot a b] is <a|b> (conjugate-linear in the first argument). *)

val norm : t -> float

val normalize : t -> t
(** Unit-norm copy; raises [Invalid_argument] on the zero vector. *)

val scale : Complex.t -> t -> t

val max_abs_diff : t -> t -> float

val probability : t -> int -> float
(** [probability v k] is |v_k|^2, the Born-rule probability of outcome [k]. *)

(** Raw interleaved storage, exposed for the simulator's in-place gate
    kernels: real part of component [k] at index [2k], imaginary at [2k+1]. *)
val unsafe_data : t -> buffer

val blit : src:t -> dst:t -> unit
(** Copy contents; dimensions must match. *)
