module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
(** State-vector simulator.

    Simulates ideal (noiseless) circuit execution by direct amplitude
    updates, with dedicated one- and two-qubit kernels that touch each
    amplitude once per gate.  This is the classical stand-in for the paper's
    quantum hardware in the end-to-end VQE/QAOA examples: the variational
    loop evaluates E[theta] here instead of on a machine.

    Indexing follows {!Circuit}: qubit 0 is the most significant bit of a
    basis-state index. *)

val apply_matrix : Cvec.t -> Cmat.t -> int array -> unit
(** [apply_matrix psi g qubits] applies the 2^k-dimensional unitary [g] to
    the listed qubits of [psi], in place.  Specialized kernels cover k = 1
    and k = 2; wider gates go through {!Circuit.embed}. *)

val run : ?theta:float array -> ?init_state:Cvec.t -> Circuit.t -> Cvec.t
(** Execute a circuit from |0...0> (or [init_state]) and return the final
    state ([theta] defaults to the empty binding). *)

val probabilities : Cvec.t -> float array
(** Born-rule outcome distribution over basis states. *)

val measure : Pqc_util.Rng.t -> Cvec.t -> int
(** Sample one computational-basis outcome. *)
