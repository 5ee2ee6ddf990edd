(** Symbolic gate parameters.

    A variational circuit is parametrized by a vector of angles theta.  Gate
    angles are affine functions of at most one variational parameter:
    [scale * theta_i + offset].  This is exactly the dependency structure the
    paper exploits — circuit constructions and optimizations transform
    individual theta_i-dependent gates into gates parametrized by -theta_i or
    theta_i / 2 (Section 7.1), and partial compilation must track which
    variational parameter each gate *latently* depends on.  Constants are the
    [scale = 0] case. *)

type t = private { var : int option; scale : float; offset : float }
(** Value under a binding [theta] is [scale * theta.(var) + offset] when
    [var = Some i], else [offset].  The invariant [var = None => scale = 0]
    is maintained by the smart constructors. *)

val const : float -> t
(** A parametrization-independent angle. *)

val var : ?scale:float -> ?offset:float -> int -> t
(** [var i] is theta_i; [var ~scale:0.5 i] is theta_i / 2, etc.
    [scale] defaults to 1, [offset] to 0.  A zero [scale] yields a
    constant. *)

val zero : t

val is_const : t -> bool

val depends_on : t -> int option
(** [Some i] when the value varies with theta_i. *)

val bind : t -> float array -> float
(** Evaluate under a concrete parameter vector.  Raises [Invalid_argument]
    when the vector is too short. *)

val neg : t -> t
val half : t -> t
val scale_by : float -> t -> t

val add : t -> t -> t option
(** Symbolic sum when representable: both constant, or same variable, or one
    constant.  [None] when the gates depend on different variables (such
    rotations cannot be merged). *)

val equal : t -> t -> bool
(** Same variable, and scale and offset equal as by [Float.equal]: NaN
    equals NaN, and [0.0] equals [-0.0]. *)

val pp : Format.formatter -> t -> unit
(** E.g. ["0.50*t3+1.571"], ["1.571"], ["-t0"]. *)
