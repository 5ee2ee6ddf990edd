module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Slice = Pqc_transpile.Slice
module Pulse = Pqc_pulse.Pulse
(** The four compilation strategies (paper Sections 2.3, 5, 6, 7).

    All strategies consume a {e prepared} variational circuit (already
    optimized and routed — use {!prepare}) plus a concrete parameter
    binding, and report the compiled pulse duration together with the
    classical compilation cost split into one-off precompute and
    per-variational-iteration work.  Each returns its timed schedule
    ({!Pulse.schedule}) and reports the end of that schedule as its
    duration:

    - {!gate_based}: per-gate lookup-table pulses along the parallel
      schedule.  Zero compilation latency, longest pulses.
    - {!full_grape}: block into <= [max_width]-qubit subcircuits and run a
      full minimal-time GRAPE search per block, {e every iteration}
      (the binding changes every iteration).  Shortest pulses, untenable
      latency.
    - {!strict_partial}: GRAPE-precompile the parametrization-independent
      Fixed blocks once; at runtime schedule them with lookup pulses for
      the theta gates.  Zero per-iteration latency, pulse speedup
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
    searches are batched over {!Pqc_parallel.Pool} lanes.
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
(** Assembles both strict slicings ({!strict_slicing}), keeps the shorter
    schedule, and returns the gate-based schedule instead whenever that
    one is shorter still. *)

val strict_slicing :
  ?workers:int -> ?max_width:int -> engine:Engine.t ->
  (Circuit.t -> Slice.slice list) -> Circuit.t -> theta:float array ->
  Pulse.t
(** The schedule strict partial compilation assembles from one slicing
    ([Slice.strict] or [Slice.strict_linear]): each Fixed slice blocked to
    [max_width] (default 4) and searched on [engine], each theta gate a
    lookup pulse. *)

val flexible_partial :
  ?workers:int -> ?max_width:int -> engine:Engine.t -> Circuit.t ->
  theta:float array -> Strategy.compiled
(** Requires parameter monotonicity (guaranteed for {!Pqc_vqe.Uccsd} and
    {!Pqc_qaoa.Qaoa} circuits). *)

type strategy = Pqc_analysis.Rule.target =
  | Gate_based
  | Strict_partial
  | Flexible_partial
  | Full_grape
(** The analyzer's target type, so a strategy is what the analysis gate
    and the advisor speak about without conversion. *)

val all_strategies : strategy list
(** In the paper's presentation order. *)

val strategy_name : strategy -> string
(** {!Pqc_analysis.Rule.target_to_string}: ["gate-based"],
    ["strict-partial"], ["flexible-partial"], ["full-grape"]. *)

val strategy_of_string : string -> (strategy, string) result
(** Parse a strategy name, case-insensitively and ignoring surrounding
    blanks: {!strategy_name}'s spellings or the short names [gate],
    [strict], [flexible], [grape].  The error names the accepted
    spellings. *)

val degrade_chain : strategy -> strategy list
(** The graceful-degradation ladder {!compile} walks, requested strategy
    first: flexible -> strict -> gate-based (full GRAPE degrades through
    strict too).  Gate-based is the terminal rung — pure table lookups
    that cannot fail. *)

val usable : Strategy.compiled -> bool
(** Whether a strategy's result is realizable: a finite, non-negative
    duration.  {!compile} walks down the ladder past any result that is
    not. *)

val compile :
  ?workers:int -> ?max_width:int -> engine:Engine.t ->
  strategy -> Circuit.t -> theta:float array -> Strategy.compiled
(** Fault-tolerant compilation entry point: runs the requested strategy
    and, if it raises or yields a non-finite duration, walks
    {!degrade_chain} until a realizable pulse is produced (gate-based
    always is).  Every abandoned rung, and every engine-level block
    fallback, is recorded in the result's
    {!Strategy.compiled.degradations} — degradation is explicit, never
    silent.

    The static analyzer ({!Pqc_analysis.Runner}, over
    {!Pqc_analysis.Rules.gate}) gates the whole pipeline first: any
    [Error] diagnostic raises {!Pqc_analysis.Runner.Rejected} before a
    single GRAPE search starts, and [Warning] diagnostics are recorded as
    [Resilience.Lint] degradations in the result.  The Info-only
    advisories do not run. *)

val advise :
  ?max_width:int -> ?latency_budget_s:float -> ?theta:float array ->
  Circuit.t -> Pqc_analysis.Cost.advice
(** The strategy advisor behind [partialc analyze]: prices each strategy
    by compiling it on {!Engine.model} with one worker, at [theta]
    (default {!Pqc_analysis.Cost.canonical_theta}) and [max_width]
    (default {!Pqc_analysis.Rule.grape_width_cap}), then recommends one
    ({!Pqc_analysis.Cost.advise}).  An estimate is the compiled result's
    duration, precompute and per-iteration seconds, and its number of
    [Pulse.Optimized] segments; a strategy whose compile raises
    [Invalid_argument] is infeasible with that message.  The ambient
    {!Fault} plan is inactive while it prices and restored afterwards, so
    the advice does not depend on [PQC_WORKERS] or [PQC_FAULT_PLAN]. *)
