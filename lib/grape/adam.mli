(** ADAM first-order optimizer over flat parameter vectors (beta1 = 0.9,
    beta2 = 0.999, epsilon = 1e-8), with the learning-rate/decay
    hyperparameters that flexible partial compilation tunes per subcircuit
    (Section 7.2).

    [Grape.optimize] runs this step, with its drive clip, in C
    ([pqc_adam_step] in [lib/linalg/kernels4.c]).  This module is the
    reference the tests pin that step to bit for bit. *)

type t

val create : int -> t
(** [create dim]: zero moments, step count 0. *)

val step :
  t -> learning_rate:float -> params:float array -> grad:float array -> unit
(** One in-place update of [params].  [learning_rate] is supplied per call so
    callers can apply decay schedules. *)

val reset : t -> unit
