module Circuit = Pqc_quantum.Circuit
(** Dataflow over the instruction stream: parameter def-use chains,
    per-qubit liveness, and a sound (incomplete) commutation relation
    between gates, plus the two transformations built on them —
    commutation-aware reslicing and measurement-cone reachability.

    Everything here is purely static: no GRAPE run, no unitary is built
    (except in the property tests, which verify {!reslice} against
    {!Circuit.unitary} on small random circuits). *)

type def_use = {
  var : int;  (** Parameter index theta_[var]. *)
  gates : int list;  (** Instruction indices using it, ascending. *)
  first : int;
  last : int;
  contiguous : bool;
      (** True when the parameter's gates form one run among the
          {e parametrized} gates — interleaved fixed gates do not break
          contiguity, another parameter's gate does (Section 7.1). *)
}

type liveness = {
  first_use : int option;
  last_use : int option;
  uses : int;
}

type t = {
  n : int;
  length : int;
  def_uses : def_use list;  (** Sorted by [var]; one entry per used theta. *)
  liveness : liveness array;  (** Indexed by qubit. *)
  monotone : bool;  (** All def-use chains contiguous = flexible-sliceable. *)
}

val of_circuit : Circuit.t -> t

val find_def_use : t -> int -> def_use option

val instr_equal : Circuit.instr -> Circuit.instr -> bool
(** Structural equality: same gate (including symbolic angle), same
    operands. *)

val commutes : Circuit.instr -> Circuit.instr -> bool
(** Sound, incomplete: [true] only when the two gates provably commute —
    disjoint supports, identical instructions, or agreeing
    diagonal/X-axis/Y-axis action on every shared qubit (which covers
    Rz-family vs CX controls, X-family vs CX targets, and all mutually
    diagonal pairs).  [false] means "not known to commute". *)

val reslice : Circuit.t -> Circuit.t option
(** Greedy linear extension of the non-commutation DAG that tries to make
    every parameter's run contiguous.  [Some c'] is always
    unitary-equivalent to the input (property-tested) and satisfies
    {!Pqc_transpile.Slice.is_monotone}; [None] when the greedy order does
    not achieve monotonicity (the transformation never guesses).
    Deterministic: all ties break on the smallest original index. *)

val dead_params : Circuit.t -> (int * int list) list
(** Parameters whose every gate is measurement-irrelevant: diagonal, and
    followed only by diagonal gates on its qubits, so it commutes to the
    end of the circuit, where it cannot change a computational-basis
    probability.  Varying them cannot move any measured expectation value.
    Pairs of parameter index and the offending instruction indices. *)
