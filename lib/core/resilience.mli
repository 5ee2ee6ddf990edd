module Grape = Pqc_grape.Grape
(** Fault tolerance for the compilation engine.

    GRAPE is numerically fragile and sits on the critical path of every
    variational iteration: a diverged or stalled pulse search must never
    kill the surrounding VQE/QAOA loop.  This module centralizes the
    pieces the engine and compiler use to survive it: a structured
    failure vocabulary, a bounded retry policy that reseeds the optimizer
    and shrinks its learning rate, wall-clock deadlines, and degradation
    records that make every fallback visible in the result accounting. *)

type failure =
  | Non_finite  (** NaN/inf fidelity or gradient during optimization. *)
  | Diverged  (** Search failed to converge within its probe budget. *)
  | Deadline_exceeded  (** Wall-clock budget expired. *)
  | Cache_corrupt  (** Persistent cache entry failed validation. *)
  | Lint  (** Static analysis warning recorded by the pre-GRAPE gate. *)
  | Worker_lost
      (** A pool worker died (or shipped a corrupt record) and its share
          was recomputed in-process by the parent. *)
  | Io_error
      (** A filesystem operation failed (unwritable cache path, full
          disk); the result stands, only persistence degraded. *)

val failure_to_string : failure -> string
val failure_of_string : string -> failure option

val retryable : failure -> bool
(** [Non_finite] and [Diverged] are worth retrying with fresh settings;
    [Deadline_exceeded], [Cache_corrupt], [Lint], [Worker_lost] and
    [Io_error] are not. *)

type policy = {
  max_attempts : int;  (** Total attempts, first try included. *)
  lr_shrink : float;
      (** Learning-rate multiplier applied per retry (default 0.5: halve
          on each divergence). *)
  iter_backoff : float;
      (** Exponential backoff on the probe iteration budget per retry
          (default 1.5). *)
  reseed_stride : int;  (** Seed increment per retry (a prime). *)
}

val default_policy : policy
(** 3 attempts, halve the learning rate, 1.5x the iteration budget,
    reseed by 7919 per retry.  {!Engine} searches use it. *)

val retune : policy -> attempt:int -> Grape.settings -> Grape.settings
(** Settings for retry number [attempt] (0 = first try, returned
    unchanged): reseeded RNG, shrunk learning rate, backed-off iteration
    budget (capped at {!Grape.max_steps}). *)

type deadline
(** A wall-clock deadline, or no deadline. *)

val no_deadline : deadline
val deadline_after : float -> deadline
(** [deadline_after s] expires [s] seconds from now (clamped at 0). *)

val of_seconds : float option -> deadline
(** [None] maps to {!no_deadline}. *)

val expired : deadline -> bool
val remaining_s : deadline -> float option

val absolute : deadline -> float option
(** The underlying absolute instant on the {!Pqc_obs.Obs.Clock.now}
    scale, in the form {!Grape.optimize}'s [?deadline] expects. *)

val deadline_seconds_from_env : unit -> float option
(** Per-search budget from [PQC_SEARCH_DEADLINE_S], if set and valid
    (a finite number of seconds > 0).  An invalid value reads as unset,
    with a stderr warning once per distinct value and an
    [engine.env.invalid] trace count; an empty one is silent (see
    {!Pqc_parallel.Pool.seconds_from_env}). *)

type degradation = {
  stage : string;  (** Where the fallback happened, e.g. ["flexible-partial"]. *)
  reason : failure;
  detail : string;
  run_id : string option;
      (** Correlation id of the degraded request ({!Pqc_obs.Obs.Ctx}),
          when one was ambient at the failure site. *)
}

val degradation_to_string : degradation -> string
(** Renders ["<stage>: <reason> (<detail>)"], with a trailing
    [" [<run_id>]"] only when a run_id is present — the [None] form is
    byte-identical to the historical format. *)

val with_retries :
  policy -> deadline -> (attempt:int -> ('a, failure) result) ->
  ('a, failure) result
(** Run [f ~attempt:0], retrying (attempt 1, 2, ...) while the failure is
    {!retryable}, attempts remain, and the deadline has not expired.
    Returns the first [Ok] or the last [Error]. *)
