module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
(** The four compilation strategies (paper Sections 2.3, 5, 6, 7).

    All strategies consume a {e prepared} variational circuit (already
    optimized and routed — use {!prepare}) plus a concrete parameter
    binding, and report the compiled pulse duration together with the
    classical compilation cost split into one-off precompute and
    per-variational-iteration work:

    - {!gate_based}: per-gate lookup-table pulses, concatenated along the
      parallel schedule.  Zero compilation latency, longest pulses.
    - {!full_grape}: block into <= [max_width]-qubit subcircuits and run a
      full minimal-time GRAPE search per block, {e every iteration}
      (the binding changes every iteration).  Shortest pulses, untenable
      latency.
    - {!strict_partial}: GRAPE-precompile the parametrization-independent
      Fixed blocks once; at runtime concatenate them with lookup pulses
      for the theta gates.  Zero per-iteration latency, pulse speedup
      governed by Fixed-block depth.
    - {!flexible_partial}: slice by parameter monotonicity into
      single-parameter subcircuits, precompute per-slice GRAPE
      hyperparameters; per iteration, one tuned GRAPE run per block
      recovers full-GRAPE pulse durations at a fraction of its latency. *)

val prepare : ?topology:Topology.t -> Circuit.t -> Circuit.t
(** Optimization passes + routing (defaults to a line topology of the
    circuit's width) + a final optimization sweep — the paper's fair
    gate-based baseline pipeline. *)

val gate_based : Circuit.t -> theta:float array -> Strategy.compiled

(** The engine-backed strategies below take [?workers]: independent block
    searches are batched over {!Pqc_parallel.Pool} forked workers.
    Defaults to the [PQC_WORKERS] environment variable (1 when unset —
    fully sequential, no fork).  Results are deterministic in the worker
    count; a lost worker degrades to in-process recompute and is recorded
    in the result's [degradations] and [pool] fields. *)

val full_grape :
  ?workers:int -> ?max_width:int -> engine:Engine.t -> Circuit.t ->
  theta:float array -> Strategy.compiled
(** [max_width] defaults to 4 (Section 5.2). *)

val strict_partial :
  ?workers:int -> ?max_width:int -> engine:Engine.t -> Circuit.t ->
  theta:float array -> Strategy.compiled

val flexible_partial :
  ?workers:int -> ?max_width:int -> engine:Engine.t -> Circuit.t ->
  theta:float array -> Strategy.compiled
(** Requires parameter monotonicity (guaranteed for {!Pqc_vqe.Uccsd} and
    {!Pqc_qaoa.Qaoa} circuits). *)

type strategy = Gate_based | Strict_partial | Flexible_partial | Full_grape

val all_strategies : strategy list
(** In the paper's presentation order. *)

val strategy_name : strategy -> string

val degrade_chain : strategy -> strategy list
(** The graceful-degradation ladder {!compile} walks, requested strategy
    first: flexible -> strict -> gate-based (full GRAPE degrades through
    strict too).  Gate-based is the terminal rung — pure table lookups
    that cannot fail. *)

val strategy_of_target : Pqc_analysis.Rule.target -> strategy
(** Inverse of the strategy-to-analysis-target mapping. *)

val compile :
  ?workers:int -> ?max_width:int -> ?analysis:bool ->
  ?advice:Pqc_analysis.Cost.advice -> engine:Engine.t ->
  strategy -> Circuit.t -> theta:float array -> Strategy.compiled
(** Fault-tolerant compilation entry point: runs the requested strategy
    and, if it raises or yields a non-finite duration, walks
    {!degrade_chain} until a realizable pulse is produced (gate-based
    always is).  Every abandoned rung, and every engine-level block
    fallback, is recorded in the result's
    {!Strategy.compiled.degradations} — degradation is explicit, never
    silent.

    Unless [analysis] is [false], the static analyzer
    ({!Pqc_analysis.Runner}, over {!Pqc_analysis.Rules.gate}) gates the
    whole pipeline first: any [Error] diagnostic raises
    {!Pqc_analysis.Runner.Rejected} before a single GRAPE search starts,
    and [Warning] diagnostics are recorded as [Resilience.Lint]
    degradations in the result.  The Info-only advisories do not run.

    When [advice] (from {!Pqc_analysis.Runner.advise}) is given and its
    recommendation differs from [strategy], the recommended strategy is
    compiled instead and the switch is recorded as an ["advisor"]
    degradation.  When the recommendation equals [strategy], the call is
    bit-identical to the unadvised one (held by test). *)
