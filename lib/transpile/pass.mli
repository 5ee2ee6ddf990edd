module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
(** Gate-level circuit optimization passes.

    These passes reproduce the baseline the paper measures gate-based
    compilation against: "aggressive cancellation of CX gates and 'Hadamard'
    gates" (IBM transpiler) plus the authors' own pass for "merging rotation
    gates — e.g. Rx(a) followed by Rx(b) merges into Rx(a+b)" (Section 2.2).

    All passes preserve the circuit unitary for every parameter binding (a
    property-tested invariant).  Merging is commutation-aware: when looking
    backwards for a merge or cancellation partner, a gate may slide past
    intermediate gates it commutes with (e.g. Rz past the control of a CX,
    Rx past the target). *)

val optimize : ?max_rounds:int -> Circuit.t -> Circuit.t
(** Drop constant rotations with angle 0 (mod 4 pi), then sweep to a
    fixpoint (at most [max_rounds] sweeps, default 20), each sweep merging
    same-axis single-qubit rotations whose angles add symbolically (see
    {!Param.add}; rotations that merge to zero drop) and removing
    gate/inverse pairs (H H, CX CX, Swap Swap, S Sdg, ...) on identical
    operands. *)
