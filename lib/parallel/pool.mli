(** Fork-based worker pool for batch compilation.

    GRAPE block searches are CPU-bound, independent, and embarrassingly
    parallel; this module fans a batch of them out over [Unix.fork]
    workers and reassembles the results {e in input order}, so callers
    observe the same result list regardless of which process computed
    which item or in which order they finished.

    A map runs on [min workers (List.length items)] {e lanes} with one
    dispatch.  Before any fork the parent writes a fixed-width claim
    record for every item past those fixed at the forks into one pipe and
    closes the pipe's write end; then it forks the workers.  Worker [j]
    computes item [j - 1], fixed at its fork, then claims from the pipe
    until end of file.  No lane waits on another's answer, so a lane that
    draws cheap items keeps claiming while another finishes an expensive
    one.  All claims fit in one [PIPE_BUF]-sized write into the empty
    pipe, so the parent never blocks writing them: a map with more than
    1,024 claimable items claims them in contiguous runs.

    A map with no item deadline and no fault hook makes the parent one of
    the lanes: it forks [lanes - 1] workers and claims and computes
    in-process, exactly as [workers:1] would, reading the workers' frames
    between its items.  A map with either forks [lanes] workers and the
    parent computes nothing: a parent busy inside an item could not kill
    a hung worker on time.

    The design is crash-only {e and}, under a deadline, hang-aware.
    Workers ship each result as one framed line over a pipe as soon as it
    is computed, and heartbeat before starting each item.  The parent
    multiplexes every worker pipe through [select]:

    - A worker that {e dies} mid-item (segfault, OOM kill, nonzero exit)
      truncates its stream; the parent reaps it (one blocking wait,
      retried on EINTR; abnormal exits counted).
    - A worker that {e hangs} — no frame for a full item deadline — is
      SIGKILLed.  A worker holds an item from its fork to its exit, so a
      stall between a result and its next claim counts too.  Hang
      detection requires a deadline ([PQC_ITEM_DEADLINE_S] or
      [?item_deadline_s]); without one the parent waits indefinitely,
      as a deadline short enough to kill a healthy GRAPE run would be
      worse than no supervision.

    An item is never handed to a second worker.  After the fan-in the
    parent recomputes every item still missing — lost with a dead or
    killed worker, or damaged — so faults can slow a batch down but can
    never lose it, corrupt it, or change its results relative to the
    sequential run.

    The pool owns the wire format; callers pass no codec.  A worker
    ships each result and its trace events as one sealed frame per
    line: the value, marshalled, hex-encoded behind the MD5 {!Digest}
    of the marshalled bytes.  The parent unmarshals a frame only after
    its digest matches, and the item index and the kind of frame are
    inside the digested bytes, so a torn or bit-flipped frame is
    dropped (and its item recomputed), never read as another item.
    Results therefore come back bit for bit as the worker computed them:
    strings with any byte, NaN payloads, signed zeros.

    When tracing is enabled ({!Pqc_obs.Obs}), each [map] records a
    [pool.map] span, per-item [pool.item] spans, and a [pool.worker] span
    per lane: one in each forked child, and when the parent is a lane
    one with worker [0] around the parent's own items.  Child events
    travel back over the same pipe in their own frame and are
    reassembled in the parent with their original parent-span ids, so a
    trace shows which worker ran which block.  Supervision events surface
    as [pool.worker.hung] and [pool.worker.abnormal_exit] counters.
    Trace frames never touch results and tracing never changes results. *)

type stats = {
  workers : int;
      (** Lanes the batch ran on, [min workers (List.length items)] (1 =
          ran sequentially).  A map with the parent as a lane forked one
          fewer worker; one with a deadline or a hook forked this many. *)
  recovered : int;
      (** Items whose worker result was missing or corrupt and which
          were recomputed in-process by the parent. *)
  hung : int;  (** Workers SIGKILLed for exceeding the item deadline. *)
  abnormal_exits : int;
      (** Workers that exited nonzero or on a signal the parent did not
          send (deadline SIGKILLs are counted under [hung] instead). *)
}

type injected_fault = Hang | Crash_pre | Crash_mid | Partial_write
(** Faults the chaos harness can inject at the child seams: sleep
    forever after claiming an item; die before computing it; die halfway
    through writing its result frame; or write the first half of that
    frame as a whole line and carry on. *)

val set_fault_hook : (int -> injected_fault option) -> unit
(** Install the chaos decision function.  A map reads it once, at its
    start; while one is installed the parent is no lane, so each item a
    map dispatches runs in a forked child.  It is consulted {e only in
    forked children}, once per item (keyed by the item's batch index), so
    sequential runs and in-parent recovery are never faulted — which is
    what makes fault-plan runs bit-comparable to clean sequential runs.
    Used by {!Pqc_core.Fault}; tests may install their own. *)

val clear_fault_hook : unit -> unit

val workers_from_env : ?default:int -> unit -> int
(** Lane count, the parent included (see {!map}), from the
    [PQC_WORKERS] environment variable ([default]
    — itself defaulting to 1 — when unset, empty, or invalid).  The
    accepted range is integers >= 1; 1 means fully sequential (no
    processes are forked anywhere).  An invalid value ([0], [-3],
    ["four"], ...) falls back to [default] with a one-line stderr
    warning (once per distinct value) and a [pool.env.invalid] trace
    counter; an unset or empty variable falls back silently. *)

val seconds_from_env : counter:string -> string -> float option
(** [seconds_from_env ~counter var] reads a deadline in seconds from the
    environment variable [var]: [Some d] for a finite [d > 0], [None]
    otherwise.  An unset or empty variable reads as [None] silently; any
    other value that is not a finite number above 0 (["2s"], ["0"],
    ["nan"], ...) reads as [None] with a one-line stderr warning (once
    per distinct value) and one increment of the [counter] trace
    counter. *)

val map :
  ?workers:int ->
  ?item_deadline_s:float ->
  ?item_label:(int -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b * bool) list * stats
(** [map ~workers f items] computes [f] over [items] on
    [min workers (List.length items)] lanes and returns the results in
    input order, each flagged [true] when it had to be recovered by
    recomputing in the parent.  A lane is a forked worker or the parent
    itself: [workers:4] runs the parent and three forked workers, or four
    forked workers when the map has an item deadline or a fault hook.
    [workers] defaults to {!workers_from_env}; [item_deadline_s]
    defaults to [PQC_ITEM_DEADLINE_S], read by {!seconds_from_env} with
    the [pool.env.invalid] counter (finite, > 0; anything else means no
    deadline, and so no hang detection; an explicit [item_deadline_s]
    <= 0 disables it).
    With [workers <= 1] or fewer than two items the whole batch runs
    sequentially in-process ([f x, false] per item, no fork).

    A result that cannot be marshalled (it holds a closure), and one
    whose frame fails its digest, is recomputed in the parent rather
    than trusted.  [f] runs in the forked children {e and} in the parent
    (its own lane and recovered items), so it must be safe to call in
    both.  An exception from [f] leaves its item undelivered; it
    surfaces from the recomputation at fan-in, after every worker is
    reaped, first failing item first, as in a sequential run.

    [item_label] maps an item's batch index to its correlation run_id
    for the parent's flight-recorder trail ({!Pqc_obs.Obs.Flight}): the
    parent records a [pool.claim] entry per heartbeat and, on a kill or
    an abnormal reap, a matching entry naming the worker, its pid and the
    labelled item — then dumps the ring when [PQC_FLIGHT_DIR] is
    configured.  Defaults to ["item#<i>"]. *)
