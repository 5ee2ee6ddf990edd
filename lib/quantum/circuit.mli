module Cvec = Pqc_linalg.Cvec
module Cmat = Pqc_linalg.Cmat
(** Quantum circuit intermediate representation.

    A circuit is an ordered sequence of gate applications on a fixed register
    of qubits.  Parametrized gates carry symbolic {!Param} angles, so one
    circuit value represents the whole family explored by a variational
    algorithm; {!bind} specializes it to a concrete parametrization.

    Qubit convention: in basis-state indices, qubit 0 is the most significant
    bit, matching the operand order of {!Gate.matrix}. *)

type instr = { gate : Gate.t; qubits : int array }
(** One gate application.  [qubits] lists distinct in-range operands, first
    operand first (for CX, the control). *)

type t

val n_qubits : t -> int

val length : t -> int
(** Number of instructions. *)

val instrs : t -> instr array
(** Instructions in execution order.  The array is fresh; mutating it does
    not affect the circuit. *)

val instr : t -> int -> instr

val empty : int -> t

val of_instrs : int -> instr list -> t
(** Validates arity, operand range and operand distinctness. *)

val of_gates : int -> (Gate.t * int list) list -> t

val append : t -> Gate.t -> int list -> t
(** Functional append of one instruction (O(length); use {!extend} or
    {!Builder} in generator loops — folding [append] is quadratic). *)

val extend : t -> (Gate.t * int list) list -> t
(** Bulk functional append: one allocation for the whole batch, so
    [extend c gates] is O(length c + length gates) where the equivalent
    [append] fold is quadratic.  Validates like {!of_gates}. *)

val concat : t -> t -> t
(** Sequential composition; widths must match. *)

val iter : (instr -> unit) -> t -> unit

val bind : t -> float array -> t
(** Substitute a concrete parameter vector: every gate angle becomes a
    constant. *)

val depends : t -> int list
(** Sorted, duplicate-free list of variational parameters the circuit's gates
    depend on. *)

val n_params : t -> int
(** Length of the smallest theta vector every gate of the circuit can be
    bound with: one past the highest parameter index used, which is {e not}
    [List.length (depends c)] when the circuit skips indices. *)

val parametrized_gate_count : t -> int
(** Number of gates whose angle varies with some theta_i. *)

val gate_counts : t -> (string * int) list
(** Gate-name histogram, sorted by name. *)

val two_qubit_count : t -> int

val qubit_used : t -> int -> bool

val relabel : t -> n:int -> mapping:(int -> int) -> t
(** Rebuild the circuit on an [n]-qubit register, renaming each qubit [q] to
    [mapping q]; used when extracting blocks as standalone circuits. *)

val inverse : t -> t option
(** Reversed circuit of inverted gates; [None] if some gate has no in-set
    inverse. *)

val embed : n:int -> Cmat.t -> int array -> Cmat.t
(** [embed ~n g qubits] lifts the 2^k x 2^k gate matrix [g] acting on the
    listed qubits to the full 2^n-dimensional register. *)

val unitary : ?theta:float array -> t -> Cmat.t
(** Full 2^n x 2^n circuit unitary under a binding ([theta] defaults to the
    empty vector, valid for parameter-free circuits).  Intended for small
    widths (asserts n <= 12). *)

val pp : Format.formatter -> t -> unit

(** Imperative accumulation of instructions with O(1) appends. *)
module Builder : sig
  type circuit := t

  type t

  val create : int -> t
  (** [create n] starts an empty builder over [n] qubits. *)

  val add : t -> Gate.t -> int list -> unit
  val add_circuit : t -> circuit -> unit
  val length : t -> int
  val to_circuit : t -> circuit
end
