module Grape = Pqc_grape.Grape

type failure =
  | Non_finite | Diverged | Deadline_exceeded | Cache_corrupt | Lint
  | Worker_lost | Io_error

let failure_to_string = function
  | Non_finite -> "non-finite"
  | Diverged -> "diverged"
  | Deadline_exceeded -> "deadline-exceeded"
  | Cache_corrupt -> "cache-corrupt"
  | Lint -> "lint"
  | Worker_lost -> "worker-lost"
  | Io_error -> "io-error"

let failure_of_string = function
  | "non-finite" -> Some Non_finite
  | "diverged" -> Some Diverged
  | "deadline-exceeded" -> Some Deadline_exceeded
  | "cache-corrupt" -> Some Cache_corrupt
  | "lint" -> Some Lint
  | "worker-lost" -> Some Worker_lost
  | "io-error" -> Some Io_error
  | _ -> None

(* Deadlines and cache failures are not retryable: the former because the
   budget is already gone, the latter because re-reading the same bytes
   cannot help.  Lint findings are static properties of the circuit, so
   retrying cannot change them either.  A lost worker's items are already
   recomputed in-process by the pool, so there is nothing left to retry.
   IO failures (unwritable cache path, full disk) persist until the
   operator intervenes. *)
let retryable = function
  | Non_finite | Diverged -> true
  | Deadline_exceeded | Cache_corrupt | Lint | Worker_lost | Io_error -> false

(* --- Retry policy --- *)

type policy = {
  max_attempts : int;
  lr_shrink : float;
  iter_backoff : float;
  reseed_stride : int;
}

let default_policy =
  { max_attempts = 3; lr_shrink = 0.5; iter_backoff = 1.5;
    reseed_stride = 7919 }

let retune policy ~attempt (s : Grape.settings) =
  if attempt <= 0 then s
  else
    let a = float_of_int attempt in
    { s with
      Grape.seed = s.Grape.seed + (attempt * policy.reseed_stride);
      max_iters =
        min Grape.max_steps
          (int_of_float
             (float_of_int s.Grape.max_iters *. (policy.iter_backoff ** a)));
      hyperparams =
        { s.Grape.hyperparams with
          Grape.learning_rate =
            s.Grape.hyperparams.Grape.learning_rate
            *. (policy.lr_shrink ** a) } }

(* --- Deadlines (wall clock) --- *)

type deadline = float option

let no_deadline = None
let now () = Pqc_obs.Obs.Clock.now ()
let deadline_after seconds = Some (now () +. Float.max 0.0 seconds)
let of_seconds = function None -> None | Some s -> deadline_after s
let expired = function None -> false | Some d -> now () > d
let absolute d = d

let remaining_s = function
  | None -> None
  | Some d -> Some (Float.max 0.0 (d -. now ()))

let deadline_seconds_from_env () =
  match Sys.getenv_opt "PQC_SEARCH_DEADLINE_S" with
  | Some s -> (match float_of_string_opt (String.trim s) with
               | Some v when Float.is_finite v && v > 0.0 -> Some v
               | _ -> None)
  | None -> None

(* --- Degradation accounting --- *)

type degradation = {
  stage : string;
  reason : failure;
  detail : string;
  run_id : string option;
      (* correlation id of the request being degraded, when known *)
}

(* The [None] rendering is byte-identical to the historical format —
   the workers:1 ≡ workers:N determinism suite compares these strings. *)
let degradation_to_string d =
  match d.run_id with
  | None ->
    Printf.sprintf "%s: %s (%s)" d.stage (failure_to_string d.reason) d.detail
  | Some rid ->
    Printf.sprintf "%s: %s (%s) [%s]" d.stage (failure_to_string d.reason)
      d.detail rid

(* --- Generic bounded retry loop --- *)

let with_retries policy deadline f =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error e as err ->
      if retryable e && attempt + 1 < policy.max_attempts && not (expired deadline)
      then go (attempt + 1)
      else err
  in
  go 0
