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
    bookkeeping (span close, event push, histogram fold) since the last
    {!reset} — the self-overhead gauge, written as ["obs.overhead_s"]
    into every trace {!write}. *)

val reset : unit -> unit
(** Drop all recorded events, counters and histograms and restart the
    trace epoch. *)

(** {2 Recording} *)

module Span : sig
  val with_ : name:string -> ?attrs:attr list -> (unit -> 'a) -> 'a
  (** [with_ ~name ~attrs f] runs [f] inside a timed span.  When tracing
      is disabled this is just [f ()].  An exception closes the span
      (with an ["error"] attribute) and re-raises. *)
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
(** Per-span-name [(name, count, total seconds)] — the shape embedded
    in the bench JSON under ["trace"].  Ordered by total seconds
    descending, with count (descending) and then name (ascending) as
    tie-breakers, so the ordering is fully deterministic even when
    several spans accumulate equal totals. *)

(** {2 Run-level metrics}

    Log-bucketed histograms for per-iteration quantities (compile
    latency, pulse duration, energy) and span latencies.  Bucket
    boundaries sit at [2^(k/8)] (~9% relative width), so percentile
    reads are within one bucket of the exact order statistic while an
    arbitrarily long run costs only O(buckets) memory — unlike
    {!events}, observations are folded into the registry and never
    accumulate per-observation state.

    Every closing {!Span.with_} also observes its duration under the
    span's name, so latency percentiles of instrumented code come for
    free.  Like the rest of the layer, {!Metrics.observe} is a no-op
    until {!enable}; the registry is cleared by {!reset}. *)

(** {2 Flight recorder}

    A bounded ring of the last N structured events per process, always
    on (independent of {!enable}) because appends are O(1) and
    allocation-free.  The supervising pool parent dumps its ring
    whenever it SIGKILLs, quarantines or reaps an abnormal worker, and
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

module Metrics : sig
  type stat = {
    count : int;  (** Finite observations recorded. *)
    sum : float;
    min : float;
    max : float;
  }

  val observe : string -> float -> unit
  (** Record one observation (no-op when tracing is disabled; NaN and
      infinite values are dropped). *)

  val names : unit -> string list
  (** Histogram names, sorted. *)

  val stats : string -> stat option
  (** Exact count/sum/min/max ([None] for unknown histograms). *)

  val quantile : string -> float -> float
  (** [quantile name q] estimates the [q]-quantile ([0 <= q <= 1],
      clamped) from the log buckets: the geometric midpoint of the
      bucket holding the order statistic, clamped to the observed
      [min, max].  NaN for unknown or empty histograms. *)

  val percentiles : string -> float * float * float
  (** [(p50, p90, p99)]. *)

  val reset : unit -> unit
  (** Clear the registry only (events and counters are untouched);
      {!Obs.reset} also clears it.  Forked pool workers call this right
      after the fork so {!encode_all} ships exactly their own
      observations. *)

  val encode_all : unit -> string
  (** Single-line (newline-free) text of the whole registry — the
      format of a bench-matrix cell's [metrics.reg], and what a pool
      worker ships home; [""] when the registry is empty. *)

  val absorb : string -> unit
  (** Merge a registry serialized by {!encode_all} in another process
      additively into this one (bucket counts, counts and sums add;
      min/max combine).  Undecodable records are dropped. *)

  val summary : unit -> string
  (** Rendered {!Pqc_util.Table}: per histogram, count, mean and
      p50/p90/p99/max. *)

  (** Offline histogram aggregator.  A standalone registry value that
      merges {!encode_all}-serialized registries (e.g. the per-cell
      [metrics.reg] files a bench-matrix run leaves on disk) additively,
      with the same quantile semantics as the live registry.  Unlike the
      global registry it is independent of {!Obs.enable}/{!Obs.reset}:
      absorbing and querying work with tracing off, and nothing here
      touches the process's own telemetry. *)
  module Agg : sig
    type t

    val create : unit -> t

    val absorb : t -> string -> unit
    (** Merge one {!encode_all}-format line additively (bucket counts,
        counts and sums add; min/max combine).  Undecodable records are
        dropped. *)

    val names : t -> string list
    (** Histogram names, sorted. *)

    val stats : t -> string -> stat option
    val mean : t -> string -> float

    val percentiles : t -> string -> float * float * float
    (** [(p50, p90, p99)], with the {!Metrics.quantile} estimator over the
        merged buckets. *)

    val encode : t -> string
    (** Re-serialize the merged registry in {!encode_all} format. *)
  end
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
(** Rendered {!Pqc_util.Table}: span counts and total milliseconds,
    counter totals, last gauge values. *)

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

val absorb : event list -> unit
(** Append events recorded in another process ({!events_since}) to this
    process's buffer, fold their counter increments into the totals, and
    number later workers' spans above theirs (see {!set_worker}). *)
