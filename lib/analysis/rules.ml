module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Block = Pqc_transpile.Block
module Slice = Pqc_transpile.Slice
open Rule

(* ------------------------------------------------------------------ *)
(* Validity: the stream must be constructible as a Circuit.t           *)
(* ------------------------------------------------------------------ *)

let operand_names i =
  String.concat "," (List.map string_of_int (Array.to_list i.Circuit.qubits))

let qubit_bounds =
  { id = "PQC001"; title = "qubit-bounds";
    doc = "every operand lies in [0, n)";
    check =
      Stream
        (fun ctx ->
          let n = ctx.n in
          let rec in_range (qs : int array) k =
            k >= Array.length qs
            || (qs.(k) >= 0 && qs.(k) < n && in_range qs (k + 1))
          in
          pure_stream (fun idx i ->
              if in_range i.Circuit.qubits 0 then []
              else
                Array.to_list i.Circuit.qubits
                |> List.filter_map (fun q ->
                       if q >= 0 && q < ctx.n then None
                       else
                         Some
                           (Diagnostic.error ~rule:"PQC001"
                              ~span:(Diagnostic.point idx)
                              ~hint:
                                (Printf.sprintf
                                   "register has qubits 0..%d" (ctx.n - 1))
                              (Printf.sprintf
                                 "gate %s addresses qubit %d outside [0,%d)"
                                 (Gate.name i.Circuit.gate) q ctx.n))))) }

let arity =
  { id = "PQC002"; title = "arity";
    doc = "operand count matches the gate's arity";
    check =
      Stream
        (fun _ctx ->
          pure_stream (fun idx i ->
              let want = Gate.arity i.Circuit.gate in
              let got = Array.length i.Circuit.qubits in
              if want = got then []
              else
                [ Diagnostic.error ~rule:"PQC002"
                    ~span:(Diagnostic.point idx)
                    (Printf.sprintf "gate %s expects %d operand%s, got %d (%s)"
                       (Gate.name i.Circuit.gate) want
                       (if want = 1 then "" else "s")
                       got (operand_names i)) ])) }

let duplicate_operand =
  { id = "PQC003"; title = "duplicate-operand";
    doc = "two-qubit gates address two distinct qubits";
    check =
      Stream
        (fun _ctx ->
          pure_stream (fun idx i ->
              if
                Array.length i.Circuit.qubits = 2
                && i.Circuit.qubits.(0) = i.Circuit.qubits.(1)
              then
                [ Diagnostic.error ~rule:"PQC003"
                    ~span:(Diagnostic.point idx)
                    (Printf.sprintf "gate %s applied to qubit %d twice"
                       (Gate.name i.Circuit.gate) i.Circuit.qubits.(0)) ]
              else [])) }

let validity_rules = [ qubit_bounds; arity; duplicate_operand ]

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let non_finite_angle =
  { id = "PQC010"; title = "non-finite-angle";
    doc = "gate angles are finite (no NaN/inf scale or offset)";
    check =
      Stream
        (fun _ctx ->
          pure_stream (fun idx i ->
              match i.Circuit.gate with
              | Gate.(X | Y | Z | H | S | Sdg | T | Tdg) -> []
              | Gate.(CX | CZ | Swap | ISwap) -> []
              | Gate.(Rx p | Ry p | Rz p) ->
                if
                  Float.is_finite p.Param.scale
                  && Float.is_finite p.Param.offset
                then []
                else
                  [ Diagnostic.error ~rule:"PQC010"
                      ~span:(Diagnostic.point idx)
                      ~hint:"a NaN angle poisons GRAPE's target unitary"
                      (Format.asprintf "gate %s has non-finite angle %a"
                         (Gate.name i.Circuit.gate) Param.pp p) ])) }

let unbound_param =
  { id = "PQC011"; title = "unbound-param";
    doc = "parameter indices are non-negative and covered by theta";
    check =
      Stream
        (fun ctx ->
          pure_stream (fun idx i ->
              match Gate.depends_on i.Circuit.gate with
              | None -> []
              | Some v when v < 0 ->
                [ Diagnostic.error ~rule:"PQC011"
                    ~span:(Diagnostic.point idx)
                    (Printf.sprintf "gate references parameter t%d" v) ]
              | Some v -> (
                match ctx.theta_len with
                | Some len when v >= len ->
                  [ Diagnostic.error ~rule:"PQC011"
                      ~span:(Diagnostic.point idx)
                      ~hint:
                        (Printf.sprintf
                           "binding would raise: theta has %d value%s" len
                           (if len = 1 then "" else "s"))
                      (Printf.sprintf
                         "gate depends on t%d but theta binds only t0..t%d" v
                         (len - 1)) ]
                | Some _ | None -> []))) }

(* ------------------------------------------------------------------ *)
(* The paper's slicing invariants                                      *)
(* ------------------------------------------------------------------ *)

let monotonicity =
  { id = "PQC020"; title = "param-monotonicity";
    doc = "each parameter's gates form one contiguous run (Section 7.1)";
    check =
      Stream
        (fun ctx ->
          let severity =
            (* Monotonicity is what makes flexible slicing sound; the other
               strategies never look at it. *)
            match ctx.target with
            | None | Some Flexible_partial -> Diagnostic.Error
            | Some (Gate_based | Strict_partial | Full_grape) ->
              Diagnostic.Warning
          in
          let closed = Hashtbl.create 8 in
          let current = ref None in
          { on_instr =
              (fun idx i ->
                match Gate.depends_on i.Circuit.gate with
                | None -> []
                | Some v ->
                  match !current with
                  | Some w when w = v -> []
                  | Some _ | None ->
                    let diags =
                      match Hashtbl.find_opt closed v with
                      | Some last ->
                        [ Diagnostic.v ~rule:"PQC020" ~severity
                            ~span:(Diagnostic.point idx)
                            ~hint:
                              "flexible partial compilation needs contiguous \
                               parameter runs; reorder commuting gates or \
                               fall back to strict slicing"
                            (Printf.sprintf
                               "gates of t%d are not contiguous (run already \
                                closed at instruction %d)" v last) ]
                      | None -> []
                    in
                    (match !current with
                    | Some w -> Hashtbl.replace closed w idx
                    | None -> ());
                    current := Some v;
                    diags);
            finish = (fun () -> []) }) }

(* Every instruction touching each qubit, in order: entry q is qubit q's
   lane.  Two passes, counting then filling, so each lane is one array. *)
let lanes c =
  let n = Circuit.n_qubits c and len = Circuit.length c in
  let size = Array.make n 0 in
  for k = 0 to len - 1 do
    let qs = (Circuit.instr c k).qubits in
    for j = 0 to Array.length qs - 1 do
      size.(qs.(j)) <- size.(qs.(j)) + 1
    done
  done;
  let lanes =
    Array.map
      (fun m -> if m = 0 then [||] else Array.make m (Circuit.instr c 0))
      size
  in
  let fill = Array.make n 0 in
  for k = 0 to len - 1 do
    let i = Circuit.instr c k in
    for j = 0 to Array.length i.qubits - 1 do
      let q = i.qubits.(j) in
      lanes.(q).(fill.(q)) <- i;
      fill.(q) <- fill.(q) + 1
    done
  done;
  lanes

exception Mismatch

(* One walk over the slices in concatenation order, without rebuilding
   the concatenated circuit.  Linear: one cursor over the original's
   instructions.  Region: one cursor per qubit lane, and every slice
   instruction must be next on each of its qubits' lanes. *)
let slice_reconciles ~linear original slices =
  let n = Circuit.n_qubits original in
  let total =
    List.fold_left
      (fun acc (s : Slice.slice) ->
        if Circuit.n_qubits s.circuit <> n then
          invalid_arg "Rules.slice_reconciles: width mismatch";
        acc + Circuit.length s.circuit)
      0 slices
  in
  total = Circuit.length original
  &&
  if linear then begin
    let cursor = ref 0 in
    List.for_all
      (fun (s : Slice.slice) ->
        let c = s.circuit in
        let rec go k =
          k >= Circuit.length c
          || Dataflow.instr_equal (Circuit.instr original (!cursor + k))
               (Circuit.instr c k)
             && go (k + 1)
        in
        go 0
        &&
        (cursor := !cursor + Circuit.length c;
         true))
      slices
  end
  else
    (* Region slicing may reorder across qubits; the invariant it promises
       is per-qubit instruction order (which implies circuit equivalence)
       plus conservation of the instruction count.  A qubit that lost or
       gained a gate is a mismatch, not a crash. *)
    let lanes = lanes original in
    let next = Array.make n 0 in
    let step (i : Circuit.instr) q =
      let k = next.(q) in
      if k >= Array.length lanes.(q)
         || not (Dataflow.instr_equal lanes.(q).(k) i)
      then raise_notrace Mismatch;
      next.(q) <- k + 1
    in
    (* With the counts equal, every lane is then consumed to its end: a
       one-qubit slice gate consumes one one-qubit entry and a two-qubit
       one an entry of a two-qubit gate on each lane, so the slices cannot
       hold more of either kind than the circuit. *)
    match
      List.iter
        (fun (s : Slice.slice) ->
          for k = 0 to Circuit.length s.circuit - 1 do
            let i = Circuit.instr s.circuit k in
            for j = 0 to Array.length i.qubits - 1 do
              step i i.qubits.(j)
            done
          done)
        slices
    with
    | () -> true
    | exception Mismatch -> false

let strict_slice =
  { id = "PQC021"; title = "strict-slice";
    doc = "strict slices reconcatenate to the circuit; Fixed slices carry \
           no parametrized gate";
    check =
      Structural
        (fun _ctx c ->
          let check_fixed kind slices =
            List.concat_map
              (fun (s : Slice.slice) ->
                match s.var with
                | Some _ -> []
                | None ->
                  if Circuit.parametrized_gate_count s.circuit = 0 then []
                  else
                    [ Diagnostic.error ~rule:"PQC021"
                        (Printf.sprintf
                           "%s slicing produced a Fixed slice containing %d \
                            parametrized gate(s); it cannot be precompiled"
                           kind
                           (Circuit.parametrized_gate_count s.circuit)) ])
              slices
          in
          let check_concat kind ~linear slices =
            if slice_reconciles ~linear c slices then []
            else
              [ Diagnostic.error ~rule:"PQC021"
                  ~hint:"slicer invariant violation — report upstream"
                  (Printf.sprintf
                     "%s slices do not reconcatenate to the input circuit"
                     kind) ]
          in
          let region = Slice.strict c and linear = Slice.strict_linear c in
          check_fixed "region" region
          @ check_fixed "linear" linear
          @ check_concat "region" ~linear:false region
          @ check_concat "linear" ~linear:true linear) }

let flexible_slice =
  { id = "PQC022"; title = "flexible-slice";
    doc = "flexible slices each depend on at most one parameter";
    check =
      Structural
        (fun _ctx c ->
          if not (Slice.is_monotone c) then
            (* PQC020 already pinpointed the violation; flexible slicing is
               undefined here. *)
            []
          else
            let slices = Slice.flexible c in
            let multi =
              List.concat_map
                (fun (s : Slice.slice) ->
                  match Circuit.depends s.circuit with
                  | [] | [ _ ] -> []
                  | vs ->
                    [ Diagnostic.error ~rule:"PQC022"
                        ~hint:"slicer invariant violation — report upstream"
                        (Printf.sprintf
                           "flexible slice depends on parameters {%s}"
                           (String.concat ","
                              (List.map (Printf.sprintf "t%d") vs))) ])
                slices
            in
            let concat =
              if slice_reconciles ~linear:true c slices then []
              else
                [ Diagnostic.error ~rule:"PQC022"
                    "flexible slices do not reconcatenate to the input \
                     circuit" ]
            in
            multi @ concat) }

(* ------------------------------------------------------------------ *)
(* Blocking and connectivity                                           *)
(* ------------------------------------------------------------------ *)

let block_width =
  { id = "PQC030"; title = "block-width";
    doc = "GRAPE subcircuits stay within the tractable width";
    check =
      Structural
        (fun ctx c ->
          if ctx.max_width < 2 then
            [ Diagnostic.error ~rule:"PQC030"
                ~hint:"Block.partition requires max_width >= 2"
                (Printf.sprintf "blocking budget %d is below the minimum of 2"
                   ctx.max_width) ]
          else if ctx.max_width <= grape_width_cap then
            (* Block.partition never returns a block wider than max_width:
               a fresh block holds one gate of arity <= 2, and extend and
               merge keep the union within max_width.  At or below the cap
               there is nothing to find, so skip the whole-circuit
               partition. *)
            []
          else begin
            let budget_warning =
              Diagnostic.warning ~rule:"PQC030"
                ~hint:
                  (Printf.sprintf
                     "GRAPE convergence is exponential in width; keep \
                      blocks at %d qubits or fewer" grape_width_cap)
                (Printf.sprintf
                   "blocking budget %d exceeds the GRAPE tractability \
                    cap of %d" ctx.max_width grape_width_cap)
            in
            let oversized =
              Block.partition_with_indices ~max_width:ctx.max_width c
              |> List.filter_map (fun ((b : Block.block), indices) ->
                     let width = List.length b.qubits in
                     if width <= grape_width_cap then None
                     else
                       let first = List.fold_left min max_int indices in
                       let last = List.fold_left max 0 indices in
                       Some
                         (Diagnostic.error ~rule:"PQC030"
                            ~span:(Diagnostic.span ~first ~last)
                            ~hint:
                              (Printf.sprintf
                                 "lower --max-width to %d or split the \
                                  entangling region" grape_width_cap)
                            (Printf.sprintf
                               "block on qubits {%s} is %d wide; GRAPE \
                                cannot compile blocks wider than %d"
                               (String.concat ","
                                  (List.map string_of_int b.qubits))
                               width grape_width_cap)))
            in
            budget_warning :: oversized
          end) }

let connectivity =
  { id = "PQC031"; title = "connectivity";
    doc = "two-qubit operands are adjacent on the device topology";
    check =
      Stream
        (fun ctx ->
          match ctx.topology with
          | None -> pure_stream (fun _ _ -> [])
          | Some topo when Topology.n_qubits topo < ctx.n ->
            let reported = ref false in
            pure_stream (fun _ _ ->
                if !reported then []
                else begin
                  reported := true;
                  [ Diagnostic.error ~rule:"PQC031"
                      (Printf.sprintf
                         "device has %d qubits but the circuit uses %d"
                         (Topology.n_qubits topo) ctx.n) ]
                end)
          | Some topo ->
            pure_stream (fun idx i ->
                if
                  Array.length i.Circuit.qubits = 2
                  && i.Circuit.qubits.(0) >= 0
                  && i.Circuit.qubits.(1) >= 0
                  && i.Circuit.qubits.(0) < ctx.n
                  && i.Circuit.qubits.(1) < ctx.n
                  && i.Circuit.qubits.(0) <> i.Circuit.qubits.(1)
                  && not
                       (Topology.connected topo i.Circuit.qubits.(0)
                          i.Circuit.qubits.(1))
                then
                  [ Diagnostic.error ~rule:"PQC031"
                      ~span:(Diagnostic.point idx)
                      ~hint:"run Compiler.prepare (routing) first"
                      (Printf.sprintf
                         "gate %s on qubits %s, which are not connected"
                         (Gate.name i.Circuit.gate) (operand_names i)) ]
                else [])) }

(* ------------------------------------------------------------------ *)
(* Lint: gates that waste pulse time                                   *)
(* ------------------------------------------------------------------ *)

(* Tracks, per qubit, the index of the last instruction touching it, so a
   checker can ask whether two instructions are adjacent in the per-qubit
   dependency order (nothing touching their operands ran in between). *)
let adjacency_tracker n =
  let last = Array.make n (-1) in
  let prev_of i (instr : Circuit.instr) =
    let p =
      Array.fold_left
        (fun acc q ->
          if q >= 0 && q < n then max acc last.(q) else acc)
        (-1) instr.qubits
    in
    Array.iter (fun q -> if q >= 0 && q < n then last.(q) <- i) instr.qubits;
    p
  in
  prev_of

let adjacent_inverse =
  { id = "PQC040"; title = "adjacent-inverse";
    doc = "adjacent mutually-inverse gate pairs cancel to identity";
    check =
      Stream
        (fun ctx ->
          let prev_of = adjacency_tracker ctx.n in
          let instrs = ctx.instrs in
          pure_stream (fun idx i ->
              let j = prev_of idx i in
              if j < 0 then []
              else
                let pj = instrs.(j) in
                if
                  pj.Circuit.qubits = i.Circuit.qubits
                  && (match Gate.inverse pj.Circuit.gate with
                     | Some inv -> inv = i.Circuit.gate
                     | None -> false)
                then
                  [ Diagnostic.info ~rule:"PQC040"
                      ~span:(Diagnostic.span ~first:j ~last:idx)
                      ~hint:"Pass.optimize removes the pair"
                      (Printf.sprintf
                         "%s at %d and %s at %d cancel to identity"
                         (Gate.name pj.Circuit.gate) j
                         (Gate.name i.Circuit.gate) idx) ]
                else [])) }

let mergeable_rotation =
  { id = "PQC041"; title = "mergeable-rotation";
    doc = "adjacent same-axis rotations merge; zero rotations are dead";
    check =
      Stream
        (fun ctx ->
          let prev_of = adjacency_tracker ctx.n in
          let instrs = ctx.instrs in
          let two_pi = 2.0 *. Float.pi in
          let is_zero_angle p =
            Param.is_const p
            &&
            let r = Float.rem (Param.bind p [||]) two_pi in
            Float.abs r < 1e-12 || Float.abs (Float.abs r -. two_pi) < 1e-12
          in
          pure_stream (fun idx i ->
              let dead =
                match Gate.param i.Circuit.gate with
                | Some p when is_zero_angle p ->
                  [ Diagnostic.info ~rule:"PQC041"
                      ~span:(Diagnostic.point idx)
                      ~hint:"Pass.optimize drops identity rotations"
                      (Printf.sprintf "%s rotates by a multiple of 2pi"
                         (Gate.name i.Circuit.gate)) ]
                | Some _ | None -> []
              in
              let j = prev_of idx i in
              let merge =
                if j < 0 then []
                else
                  let pj = instrs.(j) in
                  let same_rotation =
                    pj.Circuit.qubits = i.Circuit.qubits
                    &&
                    match pj.Circuit.gate, i.Circuit.gate with
                    | Gate.Rx a, Gate.Rx b
                    | Gate.Ry a, Gate.Ry b
                    | Gate.Rz a, Gate.Rz b -> Param.add a b <> None
                    | _, _ -> false
                  in
                  if same_rotation then
                    [ Diagnostic.info ~rule:"PQC041"
                        ~span:(Diagnostic.span ~first:j ~last:idx)
                        ~hint:"Pass.optimize merges the pair into one pulse"
                        (Printf.sprintf
                           "%s at %d and %d merge into a single rotation"
                           (Gate.name i.Circuit.gate) j idx) ]
                  else []
              in
              dead @ merge)) }

(* ------------------------------------------------------------------ *)
(* Dataflow and cost analyses                                          *)
(* ------------------------------------------------------------------ *)

let commutation_reslice =
  { id = "PQC060"; title = "commutation-reslice";
    doc = "a non-monotone circuit becomes monotone by reordering \
           commuting gates";
    check =
      Structural
        (fun _ctx c ->
          if Slice.is_monotone c then []
          else
            match Dataflow.reslice c with
            | None -> []
            | Some _ ->
              let df = Dataflow.of_circuit c in
              let vars =
                List.filter_map
                  (fun (d : Dataflow.def_use) ->
                    if d.contiguous then None
                    else Some (Printf.sprintf "t%d" d.var))
                  df.Dataflow.def_uses
              in
              [ Diagnostic.info ~rule:"PQC060"
                  ~hint:
                    "reorder commuting gates (Dataflow.reslice) to unlock \
                     flexible partial compilation"
                  (Printf.sprintf
                     "parameter run%s {%s} can be made contiguous by \
                      commutation-aware reslicing"
                     (if List.length vars = 1 then "" else "s")
                     (String.concat "," vars)) ]) }

let dead_parameter =
  { id = "PQC061"; title = "dead-parameter";
    doc = "a parameter's gates never reach a measurement-relevant cone";
    check =
      Structural
        (fun _ctx c ->
          Dataflow.dead_params c
          |> List.map (fun (v, gates) ->
                 let first = List.fold_left min max_int gates in
                 let last = List.fold_left max 0 gates in
                 Diagnostic.warning ~rule:"PQC061"
                   ~span:(Diagnostic.span ~first ~last)
                   ~hint:
                     "diagonal gates followed only by diagonal gates \
                      commute to the end of the circuit, where they \
                      cannot change measurement probabilities"
                   (Printf.sprintf
                      "parameter t%d cannot affect any measured \
                       expectation value" v))) }

let block_beats_grape =
  { id = "PQC062"; title = "block-gate-lookup";
    doc = "blocks where the predicted GRAPE pulse is no shorter than the \
           lookup table";
    check =
      Structural
        (fun ctx c ->
          Cost.block_advices ~max_width:ctx.max_width c
          |> List.filter_map (fun (b : Cost.block_advice) ->
                 if b.use_pulse || b.last - b.first < 1 then None
                 else
                   Some
                     (Diagnostic.info ~rule:"PQC062"
                        ~span:(Diagnostic.span ~first:b.first ~last:b.last)
                        ~hint:
                          "a hybrid gate-pulse compiler would keep this \
                           block gate-based"
                        (Printf.sprintf
                           "block on qubits {%s}: predicted GRAPE pulse \
                            %.2f ns does not beat the %.2f ns lookup \
                            table"
                           (String.concat ","
                              (List.map string_of_int b.qubits))
                           b.grape_ns b.gate_ns)))) }

(* ------------------------------------------------------------------ *)
(* Pulse-cache audit                                                   *)
(* ------------------------------------------------------------------ *)

let cache_audit =
  { id = Cache_audit.rule_id; title = "cache-audit";
    doc = "persistent pulse-cache files are intact (header, checksums, \
           unique keys)";
    check =
      External
        (fun ctx ->
          match ctx.cache_file with
          | None -> []
          | Some path -> Cache_audit.audit ~path) }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let assert_unique rules =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r : Rule.t) ->
      if Hashtbl.mem seen r.id then
        invalid_arg (Printf.sprintf "duplicate rule id %s" r.id)
      else Hashtbl.add seen r.id ())
    rules

let all =
  [ qubit_bounds; arity; duplicate_operand; non_finite_angle; unbound_param;
    monotonicity; strict_slice; flexible_slice; block_width; connectivity;
    adjacent_inverse; mergeable_rotation; commutation_reslice; dead_parameter;
    block_beats_grape; cache_audit ]

let () = assert_unique all

(* Rules whose every finding is Info.  The compile gate drops Info, so
   it skips them; PQC062 alone partitions and prices the whole circuit. *)
let advisories =
  [ adjacent_inverse; mergeable_rotation; commutation_reslice;
    block_beats_grape ]

let gate = List.filter (fun r -> not (List.memq r advisories)) all

let find id =
  List.find_opt (fun (r : Rule.t) -> r.id = id || r.title = id) all

let catalog () =
  List.map (fun (r : Rule.t) -> (r.id, r.title, r.doc)) all
