(** Matrix exponential by scaling-and-squaring with a Taylor kernel.

    GRAPE propagates a product of slice exponentials exp(-i H_k dt).  The
    slice generators have small norm (dt is sub-nanosecond, amplitudes are
    bounded by the Appendix-A drive limits), so a modest-order Taylor series
    after norm scaling is both fast and accurate to near machine precision.

    A reusable workspace keeps the inner GRAPE loop allocation-free.

    Dimension 4, the two-qubit slice that nearly every GRAPE exponential on
    the bench workloads has, runs in a vectorized C kernel; every other
    dimension takes the generic loop.  Both produce the same bits: each
    element follows one float chain (order-13 Taylor after scaling by 2^-s,
    s squarings, products summed in ascending index order), which
    [test/test_kernels.ml] pins against a naive reference.

    The scaling exponent s is the least one bringing the one-norm to at most
    1/2.  When that is not finite (an infinite norm, as from a diverged GRAPE
    run), s is 0 and the result is whatever the unscaled series gives,
    typically NaN. *)

type ws
(** Scratch space for exponentials of [n] x [n] matrices. *)

val make_ws : int -> ws

val expm_into : ws -> dst:Cmat.t -> Cmat.t -> unit
(** [expm_into ws ~dst a] stores exp(a) in [dst].  [dst] must not alias [a].
    Dimensions must match the workspace.  Performs no per-call heap
    allocation: all scratch (including the identity seed of the Taylor
    series) lives in [ws] or, at dimension 4, on the C stack. *)

val expm : Cmat.t -> Cmat.t
(** One-shot exponential (allocates a workspace). *)

val expm_i_hermitian : ?t:float -> Cmat.t -> Cmat.t
(** [expm_i_hermitian ~t h] is exp(-i t h) for Hermitian [h] ([t] defaults to
    1), the time-evolution operator; the result is unitary up to numerical
    error. *)
