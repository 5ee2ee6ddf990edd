module Cvec = Pqc_linalg.Cvec
module Cmat = Pqc_linalg.Cmat
(** Pauli-string observables and Hamiltonians.

    VQE minimizes <psi(theta)| H |psi(theta)> for a molecular Hamiltonian
    expressed as a real combination of Pauli strings; QAOA's MAXCUT cost is a
    combination of Z Z terms.  This module represents such operators and
    evaluates expectation values against simulator states. *)

type op = I | X | Y | Z

type term = { coeff : float; ops : op array }
(** [coeff] times the tensor product [ops.(0) (x) ... (x) ops.(n-1)]
    (qubit 0 first, consistent with the circuit convention). *)

type t = { n_qubits : int; terms : term list }

val make : int -> (float * op array) list -> t
(** Validates that every string has exactly [n_qubits] operators. *)

val of_strings : int -> (float * string) list -> t
(** Strings like ["IZZI"]; characters map to operators case-insensitively. *)

val identity_coefficient : t -> float
(** Sum of coefficients of all-identity terms (the constant energy shift). *)

val matrix : t -> Cmat.t
(** Dense matrix of the whole operator (small n only). *)

val expectation : t -> Cvec.t -> float
(** <psi|H|psi>, computed term-by-term with simulator kernels (no dense
    matrix), so it scales to every width the simulator supports. *)
