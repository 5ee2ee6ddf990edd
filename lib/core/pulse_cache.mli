(** Persistent, checksummed, crash-consistent store for precompiled
    block-search results.

    Strict partial compilation's whole value is that Fixed-block GRAPE
    pulses are computed once; this file format makes that precompute
    survive process restarts {e and} process crashes.  The format is
    line-oriented text:

    {v
    PQC-PULSE-CACHE v1
    <fnv1a-64-hex>\t<quoted key>\t<duration>\t<runs>\t<iters>\t<seconds>\t<fidelity|->\t<fallback|->\t<run_id|->
    v}

    Every record line carries an FNV-1a checksum of its payload.  The
    trailing [run_id] field is the correlation id of the request that
    produced the pulse; {!decode_entry} also accepts the older 7-field
    records without it (read back as [run_id = None]).

    {b Crash consistency.} Writes follow a write-ahead discipline:
    {!merge} first appends the fresh records to [path ^ ".journal"]
    (fsynced — the durability point), then compacts journal + snapshot
    into a new snapshot via temp-file + fsync + atomic rename +
    directory fsync, and finally retires the journal.  At every instant
    each record is complete on disk in at least one of the two files,
    so a crash at any point costs at most the unsynced tail of the
    in-flight append.  {!load} replays a surviving journal over the
    snapshot (idempotently), salvages the valid prefix of a torn tail
    in either file, and never raises on bad input: records that are
    truncated, bit-flipped, or otherwise unparseable are dropped (and
    counted), and a file whose version header does not match is treated
    as fully untrusted.  Salvage and drop events surface as
    [cache.salvaged] / [cache.dropped] {!Pqc_obs.Obs} counters
    (journal replays as [cache.journal.replayed], compactions as
    [cache.compaction]).

    The {!Fault} chaos sites [truncate] and [enospc] hook the journal
    append, keyed by a per-path operation counter. *)

type entry = {
  key : string;  (** Canonical block key ({!Engine.block_key}). *)
  duration_ns : float;
  grape_runs : int;
  grape_iterations : int;
  seconds : float;
  fidelity : float option;
  fallback : string option;
      (** Serialized {!Resilience.failure} when the result is a
          degraded (lookup-table) duration rather than a GRAPE pulse. *)
  run_id : string option;
      (** Correlation id of the request that produced this pulse
          ({!Pqc_obs.Obs.Ctx}); [None] for entries produced outside any
          request context and for vintage 7-field records. *)
}

val header : string

val journal_path : string -> string
(** [path ^ ".journal"] — the write-ahead journal beside a cache file. *)

val checksum : string -> string
(** FNV-1a 64-bit of a payload string, as 16 hex digits (exposed for
    tests and external validators). *)

val encode_entry : entry -> string
(** One checksummed record line (no trailing newline) — the exact format
    of a cache file record. *)

val decode_entry : string -> entry option
(** Inverse of {!encode_entry}: [None] on checksum mismatch, truncation,
    or an unparseable payload. *)

val save : path:string -> entry list -> unit
(** Full atomic replace: clears the journal, then writes the snapshot
    (temp file, fsync, rename, directory fsync). *)

val merge : path:string -> entry list -> unit
(** Journal-append-then-compact under an exclusive lock on
    [path ^ ".lock"]: durably appends the fresh records to the journal,
    reloads (snapshot + journal, newest record wins on key collision,
    genuinely new keys append in order), writes the compacted snapshot
    atomically, and retires the journal.  Concurrent merges from
    separate processes serialize on the lock, so no merge can clobber
    another's records; the lock and its fd are released on {e every}
    exit path, exceptions included. *)

type load_result = {
  entries : entry list;  (** Valid records, in file order. *)
  dropped : int;
      (** Corrupt records inside the file body (bit flips, clobbered
          header) — real damage, skipped record-by-record. *)
  salvaged : int;
      (** Torn-tail records truncated away by a crash mid-write: the
          valid prefix before them loaded cleanly and nothing after
          them existed.  Expected (and fully masked) crash damage. *)
}

val load : path:string -> load_result
(** Never raises: a missing file is an empty cache; a surviving journal
    is replayed over the snapshot; torn tails are salvaged to the valid
    record prefix; corrupt mid-file records are dropped entry-by-entry;
    a bad header drops everything. *)
