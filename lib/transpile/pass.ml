module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit

let shares_qubit (a : Circuit.instr) (b : Circuit.instr) =
  Array.exists (fun q -> Array.mem q b.qubits) a.qubits

let same_operands (a : Circuit.instr) (b : Circuit.instr) = a.qubits = b.qubits

let is_cx (i : Circuit.instr) = i.gate = Gate.CX

(* Structural commutation rules, used to slide a gate past intermediate gates
   when searching for a merge/cancellation partner.  Sound but deliberately
   incomplete: a [false] only costs optimization opportunities, never
   correctness. *)
let commutes (a : Circuit.instr) (b : Circuit.instr) =
  if not (shares_qubit a b) then true
  else if Gate.is_diagonal a.gate && Gate.is_diagonal b.gate then true
  else begin
    let diagonal_vs_cx d cx =
      (* A diagonal gate commutes with CX when it avoids the CX target. *)
      Gate.is_diagonal d.Circuit.gate && is_cx cx
      && not (Array.mem cx.Circuit.qubits.(1) d.Circuit.qubits)
    in
    let x_axis_vs_cx_target x cx =
      (* X-axis rotations on the target slide through the CX. *)
      is_cx cx
      && Array.length x.Circuit.qubits = 1
      && Gate.rotation_axis x.Circuit.gate = Some `X
      && x.Circuit.qubits.(0) = cx.Circuit.qubits.(1)
    in
    let cx_vs_cx () =
      (* Two CXs commute unless one's control is the other's target. *)
      is_cx a && is_cx b
      && a.qubits.(0) <> b.qubits.(1)
      && b.qubits.(0) <> a.qubits.(1)
    in
    let same_axis_1q () =
      Array.length a.qubits = 1 && same_operands a b
      &&
      match Gate.rotation_axis a.gate, Gate.rotation_axis b.gate with
      | Some ax1, Some ax2 -> ax1 = ax2
      | (None | Some _), _ -> false
    in
    diagonal_vs_cx a b || diagonal_vs_cx b a || x_axis_vs_cx_target a b
    || x_axis_vs_cx_target b a || cx_vs_cx () || same_axis_1q ()
  end

let angle_is_zero p =
  Param.is_const p
  &&
  let two_pi = 2.0 *. Float.pi in
  let r = Float.rem (Param.bind p [||]) two_pi in
  Float.abs r < 1e-12 || Float.abs (Float.abs r -. two_pi) < 1e-12

(* Try to combine a later gate [gi] into an earlier one [gj] on the same
   operands.  [`Merged g] replaces the earlier gate and deletes the later;
   [`Cancelled] deletes both; [`No] leaves them alone. *)
let combine (gj : Gate.t) (gi : Gate.t) =
  let merged_rotation mk pj pi =
    match Param.add pj pi with
    | None -> `No
    | Some p -> if angle_is_zero p then `Cancelled else `Merged (mk p)
  in
  match gj, gi with
  | Gate.Rx pj, Gate.Rx pi -> merged_rotation (fun p -> Gate.Rx p) pj pi
  | Gate.Ry pj, Gate.Ry pi -> merged_rotation (fun p -> Gate.Ry p) pj pi
  | Gate.Rz pj, Gate.Rz pi -> merged_rotation (fun p -> Gate.Rz p) pj pi
  | _ ->
    (match Gate.inverse gj with
    | Some inv when inv = gi -> `Cancelled
    | Some _ | None -> `No)

(* One peephole sweep.  Work on an array of surviving instruction slots; for
   each instruction, scan backwards over survivors, sliding past commuting
   gates, until a blocker or a combinable partner is found. *)
let sweep c =
  let ops = Circuit.instrs c in
  let alive = Array.map (fun i -> Some i) ops in
  let changed = ref false in
  let n = Array.length ops in
  for i = 0 to n - 1 do
    match alive.(i) with
    | None -> ()
    | Some instr_i ->
      let rec scan j =
        if j < 0 then ()
        else begin
          match alive.(j) with
          | None -> scan (j - 1)
          | Some instr_j ->
            if same_operands instr_j instr_i then begin
              match combine instr_j.gate instr_i.gate with
              | `Merged g ->
                alive.(j) <- Some { instr_j with gate = g };
                alive.(i) <- None;
                changed := true
              | `Cancelled ->
                alive.(j) <- None;
                alive.(i) <- None;
                changed := true
              | `No -> if commutes instr_j instr_i then scan (j - 1)
            end
            else if commutes instr_j instr_i then scan (j - 1)
        end
      in
      scan (i - 1)
  done;
  let survivors =
    Array.to_list alive |> List.filter_map Fun.id
    |> List.filter (fun (i : Circuit.instr) ->
           match Gate.param i.gate with
           | Some p -> not (angle_is_zero p)
           | None -> true)
  in
  let out = Circuit.of_instrs (Circuit.n_qubits c) survivors in
  (out, !changed)

let fixpoint pass ?(max_rounds = 20) c =
  let rec go c rounds =
    if rounds = 0 then c
    else begin
      let c', changed = pass c in
      if changed then go c' (rounds - 1) else c'
    end
  in
  go c max_rounds

let drop_identities c =
  let keep (i : Circuit.instr) =
    match Gate.param i.gate with
    | Some p -> not (angle_is_zero p)
    | None -> true
  in
  Circuit.of_instrs (Circuit.n_qubits c)
    (List.filter keep (Array.to_list (Circuit.instrs c)))

let optimize ?(max_rounds = 20) c = fixpoint sweep ~max_rounds (drop_identities c)
