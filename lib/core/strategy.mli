module Pulse = Pqc_pulse.Pulse
(** Shared result types and block-level scheduling for the compilation
    strategies. *)

type job = {
  qubits : int list;  (** Original-register qubits the job occupies. *)
  segment : Pulse.segment;
      (** The job's pulse: a GRAPE block or a lookup-table gate. *)
}

val makespan : n:int -> job list -> float
(** ASAP schedule of jobs over the register: each job starts when all its
    qubits are free (jobs listed in a dependency-respecting order, as
    produced by slicing/blocking).  This is how block pulses from
    different slices overlap in time when they touch disjoint qubits. *)

type compiled = {
  strategy : string;
  duration_ns : float;  (** Pulse duration of the compiled circuit. *)
  precompute : Engine.cost;  (** One-off offline work (before iteration 1). *)
  per_iteration : Engine.cost;
      (** Compilation work repeated at {e every} variational iteration —
          the quantity partial compilation attacks. *)
  pulse : Pulse.t;  (** Segment-level pulse schedule. *)
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
(** [baseline.duration / c.duration]. *)

val degraded : compiled -> bool
(** Whether any fallback was taken. *)

val degradation_report : compiled -> string
(** Human-readable "; "-joined summary of {!field-degradations}. *)
