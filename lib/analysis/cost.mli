module Circuit = Pqc_quantum.Circuit
(** The strategy advisor: per-strategy estimates of pulse duration and
    compile latency, a recommendation among them, and the per-block
    gate-versus-pulse decision bits.

    This module does not price strategies itself.  {!advise} takes the
    pricing function; [Compiler.advise] passes one that compiles each
    strategy on the model engine, so an estimate is what
    [Compiler.compile ~engine:Engine.model] reports (held by test). *)

type estimate = {
  target : Rule.target;
  infeasible : string option;
      (** Why the strategy cannot compile the circuit, or [None] when it
          can: flexible partial compilation of a non-monotone circuit
          (the slicer would refuse), or a compile that raised
          [Invalid_argument] (a block over the GRAPE cap). *)
  pulse_ns : float;  (** Predicted pulse duration ([infinity] if infeasible). *)
  precompute_s : float;  (** One-off offline compilation seconds. *)
  per_iteration_s : float;  (** Compilation seconds per variational iteration. *)
  blocks : int;  (** GRAPE segments in the compiled pulse. *)
}

type block_advice = {
  qubits : int list;
  first : int;  (** First original instruction index of the block. *)
  last : int;
  gate_ns : float;  (** Lookup-table critical path of the block. *)
  grape_ns : float;  (** Modelled GRAPE duration of the block. *)
  use_pulse : bool;
      (** True when GRAPE strictly beats the lookup table on this block —
          the hybrid gate-pulse decision bit (ROADMAP). *)
}

type advice = {
  recommended : Rule.target;
  estimates : estimate list;  (** One per strategy, presentation order. *)
  blocks : block_advice list;
  monotone : bool;
  resliceable : bool;
      (** Non-monotone but {!Dataflow.reslice} finds a monotone
          commutation-equivalent order. *)
}

val canonical_theta : Circuit.t -> float array
(** The binding used when none is supplied: pi/2 for every parameter
    (avoids zero-angle degeneracies). *)

val infeasible : Rule.target -> string -> estimate
(** The estimate of a strategy that cannot compile the circuit, with the
    reason. *)

val block_advices : ?max_width:int -> ?theta:float array -> Circuit.t ->
  block_advice list
(** Per-block gate-vs-pulse pricing of the whole circuit's blocking. *)

val advise :
  ?max_width:int -> ?latency_budget_s:float -> ?theta:float array ->
  price:(max_width:int -> theta:float array -> Circuit.t -> Rule.target ->
         estimate) ->
  Circuit.t -> advice
(** Full advisory: [price] estimates each strategy except flexible
    partial compilation on a non-monotone circuit, which is infeasible
    without being priced.  Then the per-block decisions and a
    recommendation — the shortest predicted pulse among feasible
    strategies whose per-iteration latency fits [latency_budget_s]
    (default 1 s); ties break toward lower latency, then lower
    precompute.  Gate-based always fits, so a recommendation always
    exists.  [max_width] defaults to {!Rule.grape_width_cap}; [theta] to
    {!canonical_theta}. *)

val advice_to_string : advice -> string
val advice_to_json : advice -> string
