(** Compilation telemetry: timed spans, monotonic counters, gauges, and
    per-GRAPE-run convergence profiles, exported as Chrome trace-event
    JSON plus a text summary table.

    The layer is {e disabled by default} and every instrumentation point
    is a no-op until {!enable} is called (or the [PQC_TRACE] environment
    variable is set, see below).  Tracing never changes compilation
    results: trace records carry timestamps, but pulse outputs are
    bit-for-bit identical with tracing on or off, and trace data is
    excluded from pulse-cache keys, checksums and the worker-pool results
    (trace events travel in their own pool frame).

    State is global to the process.  Forked worker-pool children inherit
    the enabled flag and the open span stack, record into their own
    (copy-on-write) buffer, and hand the pool their events
    ({!events_since}), which the parent appends to its own ({!absorb});
    inherited span ids stay valid, so reassembled child spans keep their
    correct parents.

    [PQC_TRACE] semantics: unset/empty/["0"] — disabled; ["1"], ["true"]
    or ["summary"] — enabled, text summary printed to stderr at exit;
    any other value — enabled, treated as a path and the Chrome trace
    JSON is written there at exit. *)

type attr = string * string
(** Span attribute: key and pre-rendered value. *)

type point = {
  iteration : int;
  infidelity : float;  (** [1 - fidelity] at that iteration. *)
  learning_rate : float;  (** Decayed ADAM learning rate in effect. *)
  grad_norm : float;  (** L2 norm of the flattened gradient. *)
}
(** One snapshot of a GRAPE optimization trajectory. *)

type event =
  | Span of {
      id : int;
      parent : int;  (** Enclosing span id; 0 at top level. *)
      name : string;
      attrs : attr list;
      ts : float;  (** Seconds since the trace epoch. *)
      dur : float;  (** Seconds. *)
      tid : int;  (** 0 in the parent; worker index + 1 in pool children. *)
    }
  | Count of { name : string; by : float; ts : float; tid : int }
      (** One increment of a monotonic counter (totals are accumulated at
          export time, so child increments merge additively). *)
  | Gauge of { name : string; value : float; ts : float; tid : int }
  | Profile of { label : string; points : point list; ts : float; tid : int }

(** {2 Clock}

    Single indirection over [CLOCK_MONOTONIC].  Every span timestamp,
    deadline check and bench timer in the tree reads time through
    {!Clock.now}, so a test can install a fake clock in one line.  The
    default never steps back under NTP or a manual clock change; its epoch
    is arbitrary (typically boot), so readers use only differences of two
    reads, or deadlines built from a read.  Flight-recorder timestamps are
    the exception: they read the wall clock, so a dump lines up with other
    logs. *)

module Clock : sig
  val now : unit -> float
  (** Current seconds via the installed hook (default [CLOCK_MONOTONIC]). *)

  val set : (unit -> float) -> unit
  (** Install a clock hook (tests only). *)

  val reset : unit -> unit
  (** Restore the default monotonic clock. *)
end

(** {2 Correlation contexts}

    A [run_id] names one compile request; batch items derive
    ["<run_id>#<idx>"] sub-ids from it.  Ids are minted in the parent
    process from a deterministic counter plus a label hash, so the id
    stream is a pure function of the request sequence — workers:1 and
    workers:N runs mint identical ids.  The ambient context is what
    spans, pulse-cache entries, run-log lines and degradation records
    stamp themselves with at creation time. *)

module Ctx : sig
  val mint : string -> string
  (** [mint label] returns a fresh deterministic id
      ["r<counter>-<fnv1a(label)>"].  The counter restarts on
      {!Obs.reset}. *)

  val derive : string -> int -> string
  (** [derive rid idx] is ["<rid>#<idx>"] — the per-batch-item sub-id. *)

  val current : unit -> string option
  (** Ambient context, [None] outside any request. *)

  val with_ctx : string option -> (unit -> 'a) -> 'a
  (** Run with the ambient context swapped, restoring on exit (also on
      exceptions). *)
end

(** {2 Lifecycle} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val overhead_seconds : unit -> float
(** Cumulative seconds the tracing layer has spent on its own
    bookkeeping (span close, event push) since the last {!reset} — the
    self-overhead gauge, written as ["obs.overhead_s"] into every trace
    {!write}. *)

val reset : unit -> unit
(** Drop all recorded events and counters and restart the trace
    epoch. *)

(** {2 Recording} *)

module Span : sig
  val with_ : name:string -> ?attrs:(unit -> attr list) -> (unit -> 'a) -> 'a
  (** [with_ ~name ~attrs f] runs [f] inside a timed span.  When tracing
      is disabled this is just [f ()], and [attrs] is never called, so a
      hot call site renders its attributes only while tracing is on.  An
      exception closes the span (with an ["error"] attribute) and
      re-raises. *)
end

val count : ?by:float -> string -> unit
(** Increment a monotonic counter (default [by] 1.0). *)

val gauge : string -> float -> unit

val profile : label:string -> point list -> unit
(** Attach one GRAPE convergence profile to the trace. *)

(** {2 Introspection} *)

val events : unit -> event list
(** Recorded events in emission order (spans appear when they close, so
    children precede their parents). *)

val counter_value : string -> float
(** Current total of a counter.  Unknown counters — never incremented,
    or never incremented while tracing was enabled — read as [0.]
    rather than raising; reading is always safe. *)

val rollup : unit -> (string * int * float) list
(** Per-span-name [(name, count, total seconds)] — the span rows of
    {!summary}.  Ordered by total seconds
    descending, with count (descending) and then name (ascending) as
    tie-breakers, so the ordering is fully deterministic even when
    several spans accumulate equal totals. *)

(** {2 Flight recorder}

    A bounded ring of the last N structured events per process, always
    on (independent of {!enable}) because appends are O(1) and
    allocation-free.  The pool parent dumps its ring whenever it
    SIGKILLs a hung worker or reaps an abnormal one, and
    {!Pqc_core.Fault} dumps when a fault plan fires — so a chaos failure
    leaves a replayable event tail instead of "worker 3 died".

    The ring holds the last 256 entries; dumps are written only when
    [PQC_FLIGHT_DIR] (or an explicit [dir]) is configured, so normal runs
    never leave files behind. *)

module Flight : sig
  type entry = {
    f_seq : int;  (** Monotonic per process; survives ring wrap. *)
    f_ts : float;  (** Wall-clock seconds ([Unix.gettimeofday]). *)
    f_kind : string;
    f_run_id : string;  (** [""] when recorded outside any context. *)
    f_detail : string;
  }

  val record : kind:string -> ?run_id:string -> string -> unit
  (** Append one entry (the [string] is the detail).  O(1), no
      allocation beyond the caller's own strings, never raises. *)

  val reset : unit -> unit
  (** Logically empty the ring (O(1)).  Forked pool children call this
      right after the fork so a worker dump never replays parent
      history. *)

  val entries : unit -> entry list
  (** Live window, oldest first. *)

  val set_capacity : int -> unit
  (** Resize (and clear) the ring; test hook for wrap semantics. *)

  val dump : dir:string -> reason:string -> unit -> string option
  (** Write the ring as one text file ([flight-<pid>-w<worker>-<n>.txt],
      one entry per line) into [dir]; returns the path, or [None] when
      the ring is empty or the write fails.  File names embed pid,
      worker id and a per-process counter, so concurrent dumps from
      different processes can never interleave in one file. *)

  val dump_auto : reason:string -> unit -> string option
  (** {!dump} into [PQC_FLIGHT_DIR]; no-op ([None]) when unset. *)
end

(** {2 Export} *)

val to_chrome_json : ?normalize:bool -> unit -> string
(** Chrome trace-event JSON ([chrome://tracing] / Perfetto), fields in
    deterministic order.  [normalize] replaces every timestamp with the
    event's emission index and every duration with 1 — used by the
    golden-fixture test so the document is bit-stable. *)

val write : ?normalize:bool -> path:string -> unit -> unit
(** Atomically write {!to_chrome_json} to [path], stamping the
    ["obs.overhead_s"] self-overhead gauge first. *)

val summary : unit -> string
(** Rendered {!Pqc_util.Table}: per span name, its count, total
    milliseconds and the exact nearest-rank [p50], [p90], [p99] and [max]
    of its recorded durations (the value at rank ceil(p·n/100) of the
    sorted durations); then counter increments and totals, last gauge
    values, and one row per profile label, in first-seen order, with its
    profile count and total number of points.  The percentiles are
    computed at call time over the same recorded spans as the count and
    total, forked workers' spans included. *)

(** {2 Worker-pool plumbing} *)

val mark : unit -> int
(** Current event count; pass to {!events_since} to take only the events
    recorded after this point (e.g. since a fork). *)

val set_worker : int -> unit
(** Tag this process as pool worker [w] (1-based): subsequent events get
    [tid = w] and span ids move to a disjoint namespace so they cannot
    collide with the parent's, a sibling's, or those of any worker whose
    spans the parent {!absorb}ed from an earlier pool map. *)

val events_since : int -> event list
(** The events recorded after the given {!mark}, in emission order; [[]]
    when there are none or tracing is disabled.  {!Pqc_parallel.Pool}
    ships them home from a worker. *)

val rewind : int -> unit
(** Drop the events recorded after the given {!mark} and subtract their
    counter increments from the totals, as if they had not been recorded.
    A total of integer increments, as every counter the program keeps
    is, restores exactly; one of fractional increments may differ in its
    last bits. *)

val absorb : event list -> unit
(** Append events recorded in another process ({!events_since}) to this
    process's buffer, fold their counter increments into the totals, and
    number later workers' spans above theirs (see {!set_worker}). *)
