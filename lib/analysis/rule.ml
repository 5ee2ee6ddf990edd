module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology

type target = Gate_based | Strict_partial | Flexible_partial | Full_grape

let target_to_string = function
  | Gate_based -> "gate-based"
  | Strict_partial -> "strict-partial"
  | Flexible_partial -> "flexible-partial"
  | Full_grape -> "full-grape"

(* GRAPE convergence time is exponential in block width; 4 qubits is the
   paper's tractability ceiling (Section 5.2). *)
let grape_width_cap = 4

type ctx = {
  n : int;
  instrs : Circuit.instr array;
  theta_len : int option;
  max_width : int;
  topology : Topology.t option;
  cache_file : string option;
  target : target option;
}

let make ?theta_len ?(max_width = grape_width_cap) ?topology ?cache_file
    ?target ~n instrs =
  if n <= 0 then invalid_arg "Rule.of_instrs: width must be positive";
  { n; instrs; theta_len; max_width; topology; cache_file; target }

let of_instrs ?theta_len ?max_width ?topology ?cache_file ?target ~n instrs =
  make ?theta_len ?max_width ?topology ?cache_file ?target ~n
    (Array.of_list instrs)

(* [Circuit.instrs] is already a fresh copy. *)
let of_circuit ?theta_len ?max_width ?topology ?cache_file ?target c =
  make ?theta_len ?max_width ?topology ?cache_file ?target
    ~n:(Circuit.n_qubits c) (Circuit.instrs c)

(* A stream checker observes each instruction once, in order; [finish]
   yields whatever it found.  The runner drives every stream rule through
   one shared pass over the instruction array. *)
type stream_checker = {
  on_instr : int -> Circuit.instr -> Diagnostic.t list;
  finish : unit -> Diagnostic.t list;
}

let pure_stream f = { on_instr = f; finish = (fun () -> []) }

type check =
  | Stream of (ctx -> stream_checker)
      (** Runs in the shared single pass over the instruction stream; never
          needs a validated circuit. *)
  | Structural of (ctx -> Circuit.t -> Diagnostic.t list)
      (** Needs a well-formed circuit; skipped when validity rules errored. *)
  | External of (ctx -> Diagnostic.t list)
      (** Independent of the instruction stream (e.g. cache-file audits). *)

type t = { id : string; title : string; doc : string; check : check }
