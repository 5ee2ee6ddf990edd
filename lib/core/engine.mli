module Circuit = Pqc_quantum.Circuit
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
(** Pulse-duration engine: how strategies obtain the minimal GRAPE pulse
    duration (and compilation cost) of a block.

    [Model] prices blocks with the calibrated {!Pqc_analysis.Pulse_model}
    and {!Pqc_analysis.Latency_model} — instant, used for the full benchmark sweeps.
    [Numeric] runs the real {!Pqc_grape.Grape} optimizer — the ground
    truth, tractable on small blocks; it is what validates the model
    (EXPERIMENTS.md).  Results are memoized per bound block, and the
    memo table can persist across processes ({!persist}).

    Every search is fault-tolerant: divergent or non-finite GRAPE runs
    are retried under the engine's {!Resilience.policy} (reseeded, with
    a halved learning rate), wall-clock deadlines bound each search, and
    when all attempts fail the engine degrades to the gate-based
    lookup-table duration — always realizable — tagging the result's
    [fallback] field so nothing fails silently.

    The optimizer sites of the active {!Fault} plan ([nan],
    [no-converge], [stall]) fail search attempts on purpose, to exercise
    that path.  Injected failures pass through the same retry and
    degradation machinery as real ones, but results produced under them
    never reach the memo table, the hyperparameter memo or the cache
    file. *)

type cost = { grape_runs : int; grape_iterations : int; seconds : float }
(** Classical compilation work: optimize calls, total optimizer
    iterations, and (measured or modelled) wall-clock seconds. *)

val zero_cost : cost
val add_cost : cost -> cost -> cost

type block_result = {
  duration_ns : float;  (** Minimal pulse duration found/modelled. *)
  search_cost : cost;  (** Full minimal-time search, default hyperparams. *)
  fidelity : float option;  (** Achieved fidelity ([Numeric] only). *)
  fallback : Resilience.failure option;
      (** [Some f]: the search degraded to the gate-based lookup duration
          because of [f]; [None]: a genuine engine result. *)
  run_id : string option;
      (** Correlation id ({!Pqc_obs.Obs.Ctx}) ambient when this result
          was produced.  Memo and persistent-cache hits keep the id of
          the request that originally paid for the pulse — the cache
          lineage a provenance grep follows. *)
}

type t

val model : t
(** The calibrated analytic engine. *)

val numeric :
  ?settings:Grape.settings ->
  ?system_for:(int -> Hamiltonian.t) ->
  ?deadline_s:float ->
  ?cache_file:string ->
  unit -> t
(** The real GRAPE engine.  [settings] default to {!Grape.fast_settings};
    [system_for] maps block width to a system Hamiltonian (default: gmon
    on a line).

    Divergence retries follow {!Resilience.default_policy}.  [deadline_s]
    is the wall-clock budget of one block search, retries included
    (default: the [PQC_SEARCH_DEADLINE_S] variable when set, else
    unbounded).
    [cache_file] names a persistent pulse cache (default: the
    [PQC_PULSE_CACHE] variable when set); it is loaded eagerly — corrupt
    entries dropped, see {!cache_dropped} — and written by {!persist}. *)

val block_key : Circuit.t -> string
(** Canonical memoization key of a bound block: width, gate names, exact
    IEEE-754 angle bits, operand qubits.  Distinct bindings — however
    close — get distinct keys. *)

val slice_key : Circuit.t -> string
(** Key of an unbound slice block that every binding of theta shares:
    width, gate names, each angle's parameter index and the exact bits of
    its scale and offset, operand qubits.  The numeric engine's
    hyperparameter memo ({!flex_many}) is keyed on it. *)

val search : t -> Circuit.t -> block_result
(** Minimal pulse duration of a parameter-free block (width <= 4, operands
    of two-qubit gates adjacent under the engine's topology).  Never
    raises on optimizer failure: after bounded retries it returns the
    gate-based duration with [fallback] set. *)

val persist_result : t -> (unit, Resilience.degradation) result
(** Write the memo table to the engine's [cache_file] via
    {!Pulse_cache.merge} (journaled, atomic; [Ok ()] immediately for
    [model] or when no cache file is configured).  An unwritable path or
    full disk never raises: the failure degrades to a one-line stderr
    warning, an [engine.persist.failed] counter, and an
    [Error] {!Resilience.degradation} with reason {!Resilience.Io_error}
    — the in-memory memo table is untouched. *)

val persist : t -> unit
(** {!persist_result} with the degradation discarded (the warning and
    counter still fire). *)

val cache_size : t -> int
(** Number of memoized block results (0 for [model]). *)

val hyperopt_memo_size : t -> int
(** Number of slice blocks whose tuned hyperparameters are memoized (0
    for [model]); see {!flex_many}. *)

val cache_dropped : t -> int
(** Corrupt/unreadable entries dropped when the persistent cache was
    loaded at engine creation (mid-file damage — bit flips). *)

val cache_salvaged : t -> int
(** Torn-tail entries salvaged away when the persistent cache was loaded
    at engine creation (expected crash damage; see
    {!Pulse_cache.load_result}). *)

val tuned_run_cost :
  ?hyperparams:Grape.hyperparams -> t -> Circuit.t -> duration:float -> cost
(** Cost of one GRAPE run at a known duration with per-slice tuned
    hyperparameters — flexible partial compilation's per-iteration work.
    [Numeric] runs it with [hyperparams] (default: the engine settings');
    {!flex_many} passes the slice block's memoized grid winner.  [Model]
    prices the tuning with {!Pqc_analysis.Latency_model.tuning_speedup}
    and ignores [hyperparams].  Bounded by the engine's search deadline. *)

val hyperopt_cost : t -> Circuit.t -> duration:float -> cost
(** Offline hyperparameter-tuning cost for one slice: the learning-rate ×
    decay grid, with runs and iterations summed over the cells actually
    scored (a deadline can cut the grid short).  This is what a miss in
    the per-slice hyperparameter memo of {!flex_many} pays; a hit reports
    the cost stored with the winner instead.  Always runs the grid itself:
    a bound block carries no slice key.  Bounded by the engine's search
    deadline. *)

(** {2 Batch compilation over the worker pool}

    The batch entry points compile a whole list of blocks at once,
    fanning independent searches out over [workers] lanes of
    {!Pqc_parallel.Pool} (forked processes, and usually the parent as
    one of them) and reassembling results in input order.
    They are {e deterministic in the worker count}: for any [workers],
    the returned durations, fidelities, fallbacks and iteration counts
    are identical to the sequential run — including under a {!Fault}
    plan's optimizer sites, whose decisions hash the block and the
    attempt, so each block gets what a single {!search} would give it, at
    any batch position.  Only measured wall-clock [seconds] fields may
    differ between runs. *)

type pool_stats = {
  workers : int;
      (** Pool lanes actually used, as {!Pqc_parallel.Pool.stats}
          counts them (1 = sequential). *)
  dispatched : int;  (** Unique uncached blocks sent to the pool. *)
  cache_hits : int;
      (** Inputs served without dispatch: memo-table hits plus duplicate
          blocks within the batch. *)
  recovered : int;
      (** Items recomputed in-process after their worker died or shipped
          a corrupt record. *)
}

val zero_pool_stats : pool_stats
val add_pool_stats : pool_stats -> pool_stats -> pool_stats
(** Componentwise sum; [workers] is the max of the two. *)

val search_many :
  ?workers:int -> t -> Circuit.t list ->
  block_result list * pool_stats * Resilience.degradation list
(** Batched {!search}: results in input order, one per circuit.
    [workers] defaults to {!Pqc_parallel.Pool.workers_from_env}
    ([PQC_WORKERS], default 1 — no fork, exact single-item behaviour).
    Memo-table hits and intra-batch duplicates are resolved in the
    parent before anything forks; only the remaining misses are sent to
    the pool.  {b Dispatch rule:} a batch forks only when at least two
    of its dispatched items miss the pulse memo (here every dispatched
    item is a miss; the model engine has no memo, so every item counts),
    so a cache-hot batch, or one with a single new block, never pays
    fork overhead.  Each result travels back with its block key in a
    digest-sealed pool frame ({!Pqc_parallel.Pool.map}), so it arrives
    bit for bit as the worker computed it, [run_id] included; a lost or
    damaged result, or one that answers another key, is recomputed in
    the parent and recorded as a [Worker_lost] degradation.  Genuine (non-injected) results are merged into the
    engine's memo table exactly as {!search} would. *)

type flex_result = {
  search : block_result;
  hyperopt : cost;
      (** Offline {!hyperopt_cost} at the found duration; on a memo hit,
          the cost stored when the grid ran. *)
  hyperparams : Grape.hyperparams option;
      (** The grid winner the tuned run used ([None] for [model]). *)
  tuned : cost;  (** Per-iteration {!tuned_run_cost} at that duration. *)
}

val flex_many :
  ?workers:int -> t -> theta:float array ->
  Circuit.t list -> flex_result list * pool_stats * Resilience.degradation list
(** Batched flexible-partial compile of unbound slice blocks at [theta]:
    per block, the minimal-time search of the bound block plus
    hyperparameter tuning plus one tuned run, all executed inside the same
    worker so the pool parallelizes the whole per-slice pipeline (not just
    the search).  Same determinism, recovery and caching contract as
    {!search_many}.

    {b Dispatch rule.}  Every unique block is dispatched, but an item
    counts as a miss only when its bound block is not in the pulse memo:
    a hit runs just its tuned GRAPE run, about 1 ms.  The batch forks
    only when at least two items miss, so a variational step that moves
    one angle recompiles in-process.  The model engine has no memo, so
    every one of its items counts.

    {b Hyperparameter memo.}  The numeric engine tunes each slice block
    once.  It memoizes the grid winner and the grid's cost under a
    θ-independent key of the unbound block (gate names, relabelled
    qubits, and each parameter's variable index with the exact bits of
    its scale and offset), so later compiles at new [theta] run only the
    search and the tuned run — the paper's offline tuning, sound because
    the best hyperparameters are robust to the angle (Figure 4).  Items
    read the memo in the parent and in forked children, which inherit it
    at fork; only the parent writes it, after the whole batch, and only
    from grids that ran to the end on a search free of injected faults,
    so results stay independent of the worker count.  A hit reports the
    stored cost and counts [engine.hyperopt.hit], a miss
    [engine.hyperopt.miss].  The memo lives as long as the engine and is
    never persisted.  The model engine builds no key and keeps no memo. *)
