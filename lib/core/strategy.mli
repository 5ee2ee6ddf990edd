module Pulse = Pqc_pulse.Pulse
(** The result type shared by the compilation strategies. *)

type compiled = {
  strategy : string;
  duration_ns : float;
      (** Pulse duration of the compiled circuit: [Pulse.duration pulse]. *)
  precompute : Engine.cost;  (** One-off offline work (before iteration 1). *)
  per_iteration : Engine.cost;
      (** Compilation work repeated at {e every} variational iteration —
          the quantity partial compilation attacks. *)
  pulse : Pulse.t;
      (** The timed schedule: each GRAPE block and lookup gate on its
          qubits at its ASAP start time. *)
  degradations : Resilience.degradation list;
      (** Every fallback taken while compiling: block searches that
          degraded to lookup-table durations, and whole strategies the
          compiler had to abandon.  Empty for a clean compile. *)
  pool : Engine.pool_stats;
      (** Worker-pool accounting for the batched block searches this
          compile dispatched ({!Engine.zero_pool_stats} for strategies
          that never touch the engine). *)
}

val speedup : baseline:compiled -> compiled -> float
(** [baseline.duration / c.duration]; [1.0] when both are zero (a circuit
    with no gates). *)

val degraded : compiled -> bool
(** Whether any fallback was taken. *)

val degradation_report : compiled -> string
(** Human-readable "; "-joined summary of {!field-degradations}. *)
