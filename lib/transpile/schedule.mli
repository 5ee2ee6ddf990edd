module Circuit = Pqc_quantum.Circuit
(** As-soon-as-possible list scheduling.

    The paper's gate-based runtimes are "for the critical path through the
    parallelized circuit" (Section 4.1): gates on disjoint qubits execute
    simultaneously, so a circuit's runtime is the longest dependency chain
    weighted by per-gate pulse durations.  {!asap} is the one scheduler in
    the code base: it places a circuit's gates here, and the blocks and
    lookup gates every compilation strategy emits in
    {!Pqc_pulse.Pulse.schedule}. *)

val asap :
  n:int -> qubits:('job -> int array) -> duration:('job -> float) ->
  ?emit:('job -> float -> float -> unit) -> (('job -> unit) -> unit) -> float
(** [asap ~n ~qubits ~duration ?emit iter] schedules the jobs [iter]
    yields, in that order (a dependency-respecting one), over an [n]-qubit
    register.  Each job starts at the latest finish among the earlier jobs
    that share one of its qubits, or at 0 if there is none, and
    [emit job start finish] sees it placed.  Returns the makespan, the
    latest finish (0 for no jobs).  Maxima are [Float.max], so a NaN
    duration makes the makespan NaN and the caller can reject it. *)

type entry = { instr : Circuit.instr; start_time : float; finish_time : float }

type t = { entries : entry array; makespan : float }

val schedule : duration:(Circuit.instr -> float) -> Circuit.t -> t
(** ASAP schedule of a circuit's gates: each gate starts when all its
    operands are free.  [makespan] is the critical-path length. *)

val critical_path : duration:(Circuit.instr -> float) -> Circuit.t -> float
(** Just the makespan, without building the entries. *)

val depth : Circuit.t -> int
(** Unit-duration depth (number of layers). *)
