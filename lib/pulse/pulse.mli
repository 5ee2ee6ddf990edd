module Circuit = Pqc_quantum.Circuit
(** Machine-level pulse schedules.

    A pulse schedule is what compilation ultimately produces: control
    segments placed on qubits at start times.  Segments are either table
    lookups (a named gate pulse from {!Gate_times}) or optimized pulses
    produced by GRAPE (carrying their discovered duration and, when run
    numerically, the piecewise-constant control samples).  Every strategy
    builds its schedule with {!schedule}, so the duration a compile
    reports is the end of the schedule it returns. *)

type samples = {
  dt : float;  (** Sample period, ns. *)
  controls : float array array;  (** [controls.(channel).(step)]. *)
}

type segment =
  | Lookup of { gate_name : string; duration : float }
      (** A precompiled per-gate pulse from the lookup table. *)
  | Optimized of { label : string; duration : float; samples : samples option }
      (** A GRAPE-optimized pulse for a whole subcircuit. *)

type event = {
  segment : segment;
  qubits : int array;  (** Register qubits the segment occupies. *)
  start : float;  (** Start time, ns. *)
}

type t
(** A schedule: events in emission order plus its makespan.  Abstract,
    so {!duration} is always the end of the events it holds. *)

val schedule : n:int -> (segment * int array) list -> t
(** ASAP schedule of jobs (a segment and the qubits it occupies), listed
    in a dependency-respecting order, over an [n]-qubit register
    ({!Pqc_transpile.Schedule.asap}): each segment starts when all its
    qubits are free, so segments on disjoint qubits overlap in time. *)

val makespan : n:int -> (segment * int array) list -> float
(** [duration (schedule ~n jobs)], bit for bit, without building the
    events. *)

val duration : t -> float
(** The schedule's end: the latest finish of any event (0 when empty,
    NaN when a segment's duration is). *)

val events : t -> event list
(** In emission order. *)

val segments : t -> segment list
(** The events' segments, in emission order. *)

val length : t -> int
(** Number of events. *)

val segment_duration : segment -> float

val lookup_gate : Circuit.instr -> segment
(** Table-lookup segment for one gate. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** OpenPulse-flavoured JSON export of the schedule, the hand-off format
    for pulse-level backends the paper's Section 10 anticipates:
    [{"schedule": [event, ...], "total_duration": ns}].  Each event, in
    emission order, carries [name] (gate or block label), [kind]
    ([lookup] or [grape]), [qubits], its start [t0] and [duration] in ns,
    and, for numerically optimized pulses, [dt] and the [samples] of each
    control channel.  [total_duration] is {!duration}. *)
