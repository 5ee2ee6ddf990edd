(** Dense complex matrices over a flat [Bigarray.Array1] of float64s.

    Storage is row-major with interleaved real/imaginary parts (entry (i, j)
    at flat indices [2*(i*cols + j)] and the one after), which keeps the
    GRAPE inner loops (matrix products and trace inner products on
    2^n-dimensional unitaries) allocation-free and cache-friendly.  The
    Bigarray backing stores elements unboxed and the hot kernels index it
    with [unsafe_get]/[unsafe_set], so there are no bounds checks and no
    per-element boxing on the fast path.

    {b Summation-order contract.}  Every kernel that reduces floats —
    [mul_into], [trace_of_product], [inner], [trace], norms — accumulates in
    a fixed ascending-index order, and the blocked matrix product tiles only
    the output (i, j) space while the inner k loop always runs its full
    range sequentially.  Results are therefore bit-for-bit reproducible
    across runs, worker counts and tile sizes; the workers:1 ≡ workers:4
    determinism suite relies on this. *)

type t

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat backing store: [2 * rows * cols] float64s, interleaved. *)

val rows : t -> int
val cols : t -> int

val create : int -> int -> t
(** [create r c] is the [r] x [c] zero matrix. *)

val data : t -> buffer
(** The raw interleaved buffer, for in-library kernels that need flat
    indexed access (e.g. the Jacobi eigensolver).  Mutating it mutates the
    matrix. *)

val identity : int -> t

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Copy contents; dimensions must match. *)

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val of_array : Complex.t array array -> t
(** Build from a rectangular array of rows. *)

val to_array : t -> Complex.t array array

val dims_equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t

val scale : Complex.t -> t -> t

val scale_ri_into : dst:t -> re:float -> im:float -> t -> unit
(** [scale_ri_into ~dst ~re ~im a] stores [(re + i im) * a] in [dst];
    [dst == a] is allowed.  The scalar comes as two floats, so hot callers
    avoid allocating a [Complex.t] record per call. *)

val axpy : alpha:Complex.t -> x:t -> y:t -> unit
(** [axpy ~alpha ~x ~y] accumulates [y <- y + alpha * x]. *)

val axpy_ri : re:float -> im:float -> x:t -> y:t -> unit
(** [axpy] with the scalar passed as two floats (no [Complex.t] record
    allocation at the call site).  Same arithmetic. *)

val mul : t -> t -> t
(** Matrix product (allocates the result). *)

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b] stores [a * b] in [dst].  [dst] must not alias [a] or
    [b].  The 4x4 product runs in a vectorized C kernel that keeps each
    element's ascending-k sum, so it is bit-identical to the generic loop. *)

val trace_of_product_into : dst:float array -> t -> t -> unit
(** [trace_of_product] without the result record: writes the real part to
    [dst.(0)] and the imaginary part to [dst.(1)] ([dst] needs length >= 2).
    Allocation-free; same accumulation order. *)

val mul_into_unchecked : dst:t -> t -> t -> unit
(** [mul_into] without the shape/aliasing asserts, for hot loops whose
    operands are workspace matrices of known-compatible shape (e.g. the
    Taylor/squaring loops in {!Expm}).  Violating the [mul_into]
    preconditions here silently corrupts [dst] — prefer [mul_into] anywhere
    the shapes are not locally obvious.  Bit-identical results. *)

val dagger : t -> t
(** Conjugate transpose. *)

val dagger_into : dst:t -> t -> unit
(** [dst] must not alias the argument. *)

val transpose : t -> t

val conj : t -> t

val kron : t -> t -> t
(** Kronecker (tensor) product. *)

val trace : t -> Complex.t

val trace_of_product : t -> t -> Complex.t
(** [trace_of_product a b] is Tr(a b) computed entrywise in O(n^2), without
    forming the product. *)

val inner : t -> t -> Complex.t
(** [inner a b] is the Hilbert–Schmidt inner product Tr(a† b), computed
    without forming a†. *)

val frobenius_norm : t -> float

val one_norm : t -> float
(** Maximum absolute column sum; used to pick the expm scaling power. *)

val max_abs_diff : t -> t -> float
(** Entrywise max |a_ij - b_ij|; the metric used in approximate-equality
    tests. *)

val is_unitary : ?tol:float -> t -> bool
(** [is_unitary m] checks ||m† m - I||_max <= tol (default 1e-9). *)

val apply : t -> Cvec.t -> Cvec.t
(** Matrix-vector product. *)

val random_hermitian : Pqc_util.Rng.t -> int -> t
(** Random Hermitian matrix with independent Gaussian entries; handy for
    property tests of the exponential. *)
