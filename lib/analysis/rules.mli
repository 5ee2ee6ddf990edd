(** The built-in rule catalog.

    Rule ids are stable and grouped by decade:
    - PQC00x — validity: {!qubit_bounds}, {!arity}, {!duplicate_operand}
    - PQC01x — parameters: {!non_finite_angle}, {!unbound_param}
    - PQC02x — slicing invariants: {!monotonicity}, {!strict_slice},
      {!flexible_slice}
    - PQC03x — blocking/topology: {!block_width}, {!connectivity}
    - PQC04x — lint: {!adjacent_inverse}, {!mergeable_rotation}
    - PQC05x — external resources: {!cache_audit}
    - PQC06x — dataflow/cost: {!commutation_reslice}, {!dead_parameter},
      {!block_beats_grape}

    PQC000 (parse error) and PQC999 (crashed rule) are synthesized by the
    CLI front end and {!Runner.run} respectively and are not in the
    catalog. *)

val qubit_bounds : Rule.t
val arity : Rule.t
val duplicate_operand : Rule.t

val validity_rules : Rule.t list
(** The three rules above: an error from any of them means the stream
    cannot be a {!Pqc_quantum.Circuit.t}, so structural rules are skipped. *)

val non_finite_angle : Rule.t
val unbound_param : Rule.t
val monotonicity : Rule.t
(** Severity is [Error] when the context targets flexible partial
    compilation (or no target is given, as in lint), else [Warning]. *)

val strict_slice : Rule.t
val flexible_slice : Rule.t

val slice_reconciles :
  linear:bool -> Pqc_quantum.Circuit.t -> Pqc_transpile.Slice.slice list ->
  bool
(** The reconcatenation check of {!strict_slice} and {!flexible_slice}.
    [~linear:true]: the slices concatenate to the circuit's exact
    instruction sequence.  [~linear:false] (region slicing): the same
    number of instructions, and on every qubit the same instructions in
    the same order.  Linear in the circuit length. *)

val block_width : Rule.t
val connectivity : Rule.t
(** Runs only when the context carries a topology. *)

val adjacent_inverse : Rule.t
val mergeable_rotation : Rule.t

val commutation_reslice : Rule.t
(** Info when a non-monotone circuit has a monotone commutation-equivalent
    reordering ({!Dataflow.reslice}). *)

val dead_parameter : Rule.t
(** Warning per parameter whose gates never reach a measurement-relevant
    cone ({!Dataflow.dead_params}). *)

val block_beats_grape : Rule.t
(** Info per multi-gate block whose predicted GRAPE pulse does not beat
    the gate lookup table ({!Cost.block_advices}). *)

val cache_audit : Rule.t
(** Runs only when the context names a cache file; see {!Cache_audit}. *)

val assert_unique : Rule.t list -> unit
(** Raises [Invalid_argument] on a duplicate rule id.  Runs over {!all}
    at module initialization; {!Runner.run} applies it to whatever rule
    list it is given. *)

val all : Rule.t list
(** Every built-in rule, in id order. *)

val gate : Rule.t list
(** The rules {!Pqc_core.Compiler.compile}'s gate runs: {!all} without
    the Info-only advisories {!adjacent_inverse}, {!mergeable_rotation},
    {!commutation_reslice} and {!block_beats_grape}, in catalog order.
    The gate rejects on errors, records warnings and drops infos, so
    those four would only cost time; lint and analyze keep {!all}. *)

val find : string -> Rule.t option
(** Look up by id (["PQC020"]) or title (["param-monotonicity"]). *)

val catalog : unit -> (string * string * string) list
(** [(id, title, doc)] for every rule — the lint [--rules] listing. *)
