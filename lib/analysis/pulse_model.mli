module Circuit = Pqc_quantum.Circuit
(** Calibrated analytic model of GRAPE minimal pulse durations.

    The paper spent 200,000 CPU-core-hours running GRAPE over every
    benchmark block; this model is the documented substitution (DESIGN.md)
    that lets the full benchmark sweeps run on one CPU while the real
    {!Pqc_grape.Grape} engine validates it on small blocks.

    The model prices a (parameter-bound) block by the paper's speedup
    sources (Section 5.1):

    - {b Control-field asymmetry}: per-qubit X- and Z-rotation content is
      priced at the Appendix-A drive rates (Z is 15x cheaper than X);
    - {b Fractional gates}: rotation angles are wrapped and priced
      proportionally, and CX·Rz(gamma)·CX sandwiches are recognized as
      fractional ZZ interactions costing time proportional to |gamma|
      rather than two full CXs;
    - {b Parallelism}: the block duration is the maximum over per-qubit
      lanes, where a lane overlaps its local-rotation and interaction
      content (GRAPE drives all channels simultaneously);
    - {b Any-unitary time cap}: an n-qubit block never needs more than
      T_cap(n) (Lloyd & Maity's O(4^N) bound, instantiated empirically:
      the paper observes 4-qubit QAOA blocks asymptote below 50 ns,
      Figure 2) — this produces the GRAPE asymptote as block depth grows.

    Calibration: single-gate prices reproduce our numeric GRAPE's
    minimal-time results (which themselves land on Table 1: Rx(pi) 2.5 ns,
    CX 3.8 ns, SWAP 7.6 ns); lane overlap and ZZ rates were fit against
    numeric runs on 1-3 qubit blocks (see EXPERIMENTS.md). *)

val cap : int -> float
(** [cap n] is T_cap for an [n]-qubit block (3, 12, 25, 50 ns for
    n = 1..4). *)

val block_duration : Circuit.t -> float
(** Modelled minimal GRAPE pulse duration (ns) for a parameter-free block
    of width <= 4.  Raises [Invalid_argument] on parametrized input (bind
    first) and asserts width <= 4. *)
