(** Seeded fault injection at the optimizer, process and storage seams.

    {e Optimizer} sites fail a block search attempt the way GRAPE can
    fail — a NaN fidelity, no convergence, a stall — to exercise the
    engine's retry and degradation path: they surface as [fallback]
    results and degradations, never as a crash.  {e Infrastructure}
    sites hang and crash pool workers, tear pipe frames, truncate cache
    files and fill the disk, to prove that supervision
    ({!Pqc_parallel.Pool}) and crash-consistency ({!Pulse_cache}) mask
    them completely: under such a plan, batch results are bit-identical
    to the fault-free sequential run and the cache always reloads.

    A {e plan} is a seed plus a per-site firing rate.  Whether a site
    fires for a given key is a pure hash of (seed, site, key) — never of
    execution order, process, or worker count — so a chaos run is
    exactly reproducible from its spec string.

    Spec syntax (the [PQC_FAULT_PLAN] environment variable, or {!parse}):
    {v seed=42,hang=0.5,crash-mid=0.25,partial-pipe=0.5,enospc=1,nan=0.1,stall=0.05 v}
    Unknown sites, rates outside [0,1], or a plan whose every rate is 0
    are rejected; a malformed [PQC_FAULT_PLAN] warns once on stderr and
    injects nothing.

    Optimizer sites ([nan], [no-converge], [stall]) are keyed by a hash
    of the block key and the attempt number and consulted by
    {!Engine.search} in the order listed, so a block's outcome depends
    only on the plan, the block and the attempt — the same through
    single searches and batches, at any batch position and worker count.
    Worker sites ([hang], [crash-pre], [crash-mid], [partial-pipe]) are
    keyed by the item's batch index and consulted only inside forked
    pool children (via {!Pqc_parallel.Pool.set_fault_hook}, installed by
    {!set}/{!current}).  Storage sites ([truncate], [enospc]) are keyed
    by a per-path operation counter and consulted by {!Pulse_cache}
    inside the parent.  Each firing through {!fire} bumps a
    [fault.<site>] counter in {!Pqc_obs.Obs}. *)

type site =
  | Worker_hang  (** Worker sleeps forever after claiming an item. *)
  | Worker_crash_pre  (** Worker dies before computing the item. *)
  | Worker_crash_mid  (** Worker dies halfway through its result frame. *)
  | Partial_pipe  (** Worker frames a truncated record and carries on. *)
  | Cache_truncate  (** Cache journal append is torn mid-record. *)
  | Enospc  (** Cache persist fails as if the disk were full. *)
  | Nan_fidelity
      (** A search attempt fails as {!Resilience.Non_finite}. *)
  | No_converge  (** A search attempt fails as [Diverged]. *)
  | Stall  (** A search attempt fails as [Deadline_exceeded]. *)

val all_sites : site list
val site_to_string : site -> string

type plan

val parse : string -> (plan, string) result
val to_string : plan -> string
(** Canonical spec of a plan ([seed=..] plus every nonzero rate, printed
    with 17 significant digits); [parse (to_string p)] reproduces [p]'s
    rates bit for bit, and so its decisions. *)

val rate : plan -> site -> float
(** The firing rate of [site] under [plan] (0 when the plan omits it). *)

val decide : plan -> site -> key:int -> bool
(** Pure decision function: does [site] fire for [key] under [plan]?
    Free of side effects (no counters) — the form used inside forked
    workers. *)

val set : plan option -> unit
(** Make a plan active process-wide (installing the pool fault hook) or
    deactivate injection with [None].  Overrides [PQC_FAULT_PLAN]. *)

val clear : unit -> unit
(** [set None]. *)

val current : unit -> plan option
(** The active plan, lazily initialized from [PQC_FAULT_PLAN] on first
    use (also installing the pool hook). *)

val active : unit -> bool

val fire : site -> key:int -> bool
(** [decide] against the active plan (false when none), bumping the
    [fault.<site>] counter on a hit.  The search and storage seams call
    this. *)
