(** Fork-based worker pool for batch compilation.

    GRAPE block searches are CPU-bound, independent, and embarrassingly
    parallel; this module fans a batch of them out over [Unix.fork]
    workers and reassembles the results {e in input order}, so callers
    observe the same result list regardless of which process computed
    which item or in which order they finished.

    A map runs on [min workers (List.length items)] {e lanes} in one of
    two dispatch modes.

    {b Shared dispatch}, for a map with no item deadline and no fault
    hook, makes the parent one of the lanes.  Before any fork it writes a
    fixed-width claim record for every item from [lanes - 1] on into one
    pipe and closes the pipe's write end; then it forks [lanes - 1]
    workers.  Worker [j] computes item [j - 1], fixed at its fork, then
    claims from the pipe until end of file, while the parent claims and
    computes in-process, exactly as [workers:1] would, and reads the
    workers' frames between its items.  No lane waits on another's
    answer, so a lane that draws cheap items keeps claiming while another
    finishes an expensive one.  All claims fit in one [PIPE_BUF]-sized
    write into the empty pipe, so the parent never blocks writing them: a
    map with more than 1,024 claimable items claims them in contiguous
    runs.  An item whose worker dies is recovered at fan-in; there are no
    strikes, respawns or kills.

    {b Supervised dispatch}, for a map with an item deadline or a fault
    hook, forks [lanes] workers and computes nothing in the parent, which
    hands out every index: a parent busy inside an item could not kill a
    hung worker on time.  Every worker has a feed pipe on which the
    parent writes one item index at a time from a shared queue.  After
    each item, delivered or not, the worker writes a ready frame and is
    answered with the next index, or with a closed feed once the queue is
    empty.  The parent writes a feed only in answer to a ready frame (or
    into a new worker's empty feed), so under supervised dispatch a feed
    never holds more than one unread line and the write cannot block.

    The design is crash-only {e and}, under supervised dispatch,
    hang-aware.  Workers ship each result as one framed line over a pipe
    as soon as it is computed, and heartbeat before starting each item.
    The parent multiplexes every worker pipe through [select]:

    - A worker that {e dies} mid-item (segfault, OOM kill, nonzero exit)
      truncates its stream; the parent reaps it (one blocking wait,
      retried on EINTR; abnormal exits counted).  Under shared dispatch
      its undelivered items wait for fan-in.  Under supervised dispatch
      the parent charges a {e strike} to the item it held, puts that item
      at the back of the queue, and — while the queue is not empty —
      forks a replacement worker after a seeded exponential backoff.
    - A worker that {e hangs} — no frame for a full item deadline while
      it holds an item — is SIGKILLed and handled the same way.
      Hang detection requires a deadline ([PQC_ITEM_DEADLINE_S] or
      [?item_deadline_s]); without one the parent waits indefinitely,
      as a deadline short enough to kill a healthy GRAPE run would be
      worse than no supervision.
    - An item that collects [item_retries] strikes is {e poison}: it is
      quarantined instead of being allowed to kill another worker, and
      is executed in-parent at fan-in (where the engine's own
      retry/degradation chain applies).  Respawns are capped
      ([max 16 (4*workers)] per map) so a pathological batch always
      converges to the in-parent path.

    After the fan-in the parent recomputes every item still missing —
    lost, damaged, quarantined, or over the respawn budget — so faults
    can slow a batch down but can never lose it, corrupt it, or change
    its results relative to the sequential run.

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
    per lane: one in each forked child, and under shared dispatch one
    with worker [0] around the parent's own items.  Child events travel
    back over the same pipe in their own frame and are reassembled in
    the parent with their original parent-span ids, so a trace shows
    which worker ran which block.  Supervision events surface as
    [pool.worker.hung], [pool.respawn], [pool.quarantine] and
    [pool.worker.abnormal_exit] counters, and each respawn's backoff
    adds its seconds to the [pool.respawn.backoff_s] counter, so its
    summary row reads the respawn count and the total backoff.  Trace
    frames never touch results and tracing never changes results. *)

type stats = {
  workers : int;
      (** Lanes the batch ran on, [min workers (List.length items)] (1 =
          ran sequentially).  Shared dispatch forked one fewer worker;
          supervised dispatch forked this many. *)
  recovered : int;
      (** Items whose worker result was missing, corrupt, or quarantined
          and which were recomputed in-process by the parent. *)
  hung : int;  (** Workers SIGKILLed for exceeding the item deadline. *)
  respawned : int;  (** Replacement workers forked after a strike. *)
  quarantined : int;
      (** Poison items withheld from re-dispatch after [item_retries]
          worker deaths, executed in-parent instead. *)
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
(** Install the chaos decision function.  While one is installed every
    map runs supervised dispatch, so each item it dispatches runs in a
    forked child.  It is consulted {e only in forked children}, once per
    item (keyed by the item's batch index), so sequential runs and
    in-parent recovery are never faulted — which is what makes
    fault-plan runs bit-comparable to clean sequential runs.  Used by
    {!Pqc_core.Fault}; tests may install their own. *)

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
  ?item_retries:int ->
  ?item_label:(int -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b * bool) list * stats
(** [map ~workers f items] computes [f] over [items] on
    [min workers (List.length items)] lanes and returns the results in
    input order, each flagged [true] when it had to be recovered by
    recomputing in the parent.  A lane is a forked worker or, under
    shared dispatch, the parent itself: [workers:4] runs the parent and
    three forked workers, or four forked workers when an item deadline
    or a fault hook selects supervised dispatch.
    [workers] defaults to {!workers_from_env}; [item_deadline_s]
    defaults to [PQC_ITEM_DEADLINE_S], read by {!seconds_from_env} with
    the [pool.env.invalid] counter (finite, > 0; anything else means no
    deadline, and so no hang detection; an explicit [item_deadline_s]
    <= 0 disables it);
    [item_retries], the worker deaths an item may cause before it is
    quarantined, defaults to 2 (values below 1 read as 1).  Respawn [k]
    sleeps [0.02 s * 2^k * jitter], capped at 0.5 s, with jitter drawn
    from a seeded {!Pqc_util.Rng} (deterministic per map).
    With [workers <= 1] or fewer than two items the whole batch runs
    sequentially in-process ([f x, false] per item, no fork).  SIGPIPE is
    ignored while the workers run, so a feed write to a dead worker
    fails with [EPIPE] instead of killing the parent.

    A result that cannot be marshalled (it holds a closure), and one
    whose frame fails its digest, is recomputed in the parent rather
    than trusted.  [f] runs in the forked children {e and} in the parent
    (its shared-dispatch lane and recovered items), so it must be safe to
    call in both.  An exception from [f] leaves its item undelivered; it
    surfaces from the recomputation at fan-in, after every worker is
    reaped, first failing item first, as in a sequential run.

    [item_label] maps an item's batch index to its correlation run_id
    for the parent's flight-recorder trail ({!Pqc_obs.Obs.Flight}): the
    parent records a [pool.claim] entry per heartbeat and, on a kill,
    quarantine or abnormal reap, a matching entry naming the worker, its
    pid and the labelled item — then dumps the ring when
    [PQC_FLIGHT_DIR] is configured.  Defaults to ["item#<i>"]. *)
