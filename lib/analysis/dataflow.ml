module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
module Slice = Pqc_transpile.Slice

(* ------------------------------------------------------------------ *)
(* Parameter def-use chains and per-qubit liveness                     *)
(* ------------------------------------------------------------------ *)

type def_use = {
  var : int;
  gates : int list;
  first : int;
  last : int;
  contiguous : bool;
}

type liveness = {
  first_use : int option;
  last_use : int option;
  uses : int;
}

type t = {
  n : int;
  length : int;
  def_uses : def_use list;
  liveness : liveness array;
  monotone : bool;
}

let instr_var (i : Circuit.instr) = Gate.depends_on i.gate

(* One forward pass over the stream computes every fact at once; the
   per-qubit and per-parameter maps are join-semilattices (extend-only
   index sets), so a single pass is already the fixpoint. *)
let of_instrs ~n instrs =
  let uses : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let live = Array.make n { first_use = None; last_use = None; uses = 0 } in
  Array.iteri
    (fun idx (i : Circuit.instr) ->
      Array.iter
        (fun q ->
          if q >= 0 && q < n then
            live.(q) <-
              { first_use =
                  (match live.(q).first_use with
                  | None -> Some idx
                  | some -> some);
                last_use = Some idx;
                uses = live.(q).uses + 1 })
        i.qubits;
      match instr_var i with
      | None -> ()
      | Some v -> (
        match Hashtbl.find_opt uses v with
        | Some l -> l := idx :: !l
        | None ->
          Hashtbl.replace uses v (ref [ idx ]);
          order := v :: !order))
    instrs;
  (* Contiguity of one parameter's run is judged over parametrized gates
     only: interleaved fixed gates do not break flexible slicing, another
     parameter's gate does (Section 7.1). *)
  let param_seq =
    Array.to_list instrs |> List.filter_map instr_var
  in
  let contiguous_var v =
    (* [inside]: currently within v's run; [closed]: a run of v already
       ended, so seeing v again is a violation. *)
    let rec scan inside closed = function
      | [] -> true
      | w :: rest ->
        if w = v then (not closed) && scan true closed rest
        else scan false (closed || inside) rest
    in
    scan false false param_seq
  in
  let def_uses =
    List.rev !order
    |> List.map (fun v ->
           let gates = List.rev !(Hashtbl.find uses v) in
           { var = v;
             gates;
             first = List.hd gates;
             last = List.fold_left max 0 gates;
             contiguous = contiguous_var v })
    |> List.sort (fun a b -> Int.compare a.var b.var)
  in
  { n;
    length = Array.length instrs;
    def_uses;
    liveness = live;
    monotone = List.for_all (fun d -> d.contiguous) def_uses }

let of_circuit c = of_instrs ~n:(Circuit.n_qubits c) (Circuit.instrs c)

let find_def_use t v = List.find_opt (fun d -> d.var = v) t.def_uses

(* ------------------------------------------------------------------ *)
(* Commutation                                                         *)
(* ------------------------------------------------------------------ *)

let rec same_qubits (a : int array) b k =
  k >= Array.length a || (a.(k) = b.(k) && same_qubits a b (k + 1))

(* The same gate (constructor and angle) on the same operands. *)
let instr_equal (a : Circuit.instr) (b : Circuit.instr) =
  (match (a.gate, b.gate) with
  | Gate.Rx p, Gate.Rx q | Gate.Ry p, Gate.Ry q | Gate.Rz p, Gate.Rz q ->
    Param.equal p q
  | Gate.(Rx _ | Ry _ | Rz _), _ -> false
  | Gate.(X | Y | Z | H | S | Sdg | T | Tdg | CX | CZ | Swap | ISwap as g), h ->
    g == h)
  && Array.length a.qubits = Array.length b.qubits
  && same_qubits a.qubits b.qubits 0

(* How a gate acts on one of its operand qubits.  [Diag]: the operator
   decomposes over that qubit's computational basis (Z-family, CZ, the
   control side of CX).  [X_like]/[Y_like]: the operator is a combination
   of I and that Pauli on the qubit (Rx/X on itself, the target side of
   CX).  [General]: no structure claimed (H, SWAP, iSWAP). *)
type action = Diag | X_like | Y_like | General

let action_on (i : Circuit.instr) q =
  match i.gate with
  | Gate.CX -> if q = i.qubits.(0) then Diag else X_like
  | Gate.CZ -> Diag
  | Gate.Swap | Gate.ISwap -> General
  | g ->
    if Gate.is_diagonal g then Diag
    else (
      match Gate.rotation_axis g with
      | Some `X -> X_like
      | Some `Y -> Y_like
      | Some `Z -> Diag
      | None -> General)

(* Sound but incomplete commutation check: adjacent gates commute when
   their supports are disjoint, when they are the same instruction, or
   when they agree on a non-[General] action for every shared qubit.  In
   the last case each operator splits as [A (x) I + B (x) P] per shared
   qubit (P = |z><z| projectors or the shared Pauli) with coefficients
   supported on the gates' private qubits, so all cross terms commute
   factor by factor. *)
let commutes (a : Circuit.instr) (b : Circuit.instr) =
  let shared =
    Array.to_list a.qubits |> List.filter (fun q -> Array.mem q b.qubits)
  in
  match shared with
  | [] -> true
  | _ ->
    instr_equal a b
    || List.for_all
         (fun q ->
           match (action_on a q, action_on b q) with
           | Diag, Diag | X_like, X_like | Y_like, Y_like -> true
           | (Diag | X_like | Y_like | General), _ -> false)
         shared

(* Non-commutation dependency edges i -> j (i < j): any linear extension
   of this DAG differs from the original order only by swaps of adjacent
   commuting gates, hence implements the same unitary. *)
let dependency_edges instrs =
  let len = Array.length instrs in
  let edges = ref [] in
  for j = len - 1 downto 1 do
    for i = j - 1 downto 0 do
      if not (commutes instrs.(i) instrs.(j)) then edges := (i, j) :: !edges
    done
  done;
  !edges

(* ------------------------------------------------------------------ *)
(* Commutation-aware reslicing                                         *)
(* ------------------------------------------------------------------ *)

(* Greedy Kahn linear extension of the non-commutation DAG, preferring to
   keep each parameter's gates contiguous: fixed gates are emitted as
   soon as they are ready; once a parameter's run opens, its remaining
   gates take priority until the run closes.  All ties break on the
   smallest original index, so the result is deterministic.  Returns the
   reordered circuit only when the greedy order is actually monotone —
   the transformation is conservative, never a guess. *)
let reslice c =
  let n = Circuit.n_qubits c in
  let instrs = Circuit.instrs c in
  let len = Array.length instrs in
  if len = 0 then None
  else begin
    let succs = Array.make len [] in
    let indeg = Array.make len 0 in
    List.iter
      (fun (i, j) ->
        succs.(i) <- j :: succs.(i);
        indeg.(j) <- indeg.(j) + 1)
      (dependency_edges instrs);
    let remaining = Hashtbl.create 8 in
    Array.iter
      (fun i ->
        match instr_var i with
        | None -> ()
        | Some v ->
          Hashtbl.replace remaining v
            (1 + Option.value ~default:0 (Hashtbl.find_opt remaining v)))
      instrs;
    let ready = Array.make len false in
    Array.iteri (fun i d -> if d = 0 then ready.(i) <- true) indeg;
    let emitted = Array.make len false in
    let out = ref [] in
    let open_var = ref None in
    let pick pred =
      let best = ref (-1) in
      for i = len - 1 downto 0 do
        if ready.(i) && (not emitted.(i)) && pred instrs.(i) then best := i
      done;
      !best
    in
    let emit i =
      emitted.(i) <- true;
      ready.(i) <- false;
      out := instrs.(i) :: !out;
      (match instr_var instrs.(i) with
      | None -> ()
      | Some v ->
        let left = Hashtbl.find remaining v - 1 in
        Hashtbl.replace remaining v left;
        open_var := if left = 0 then None else Some v);
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then ready.(j) <- true)
        succs.(i)
    in
    let steps = ref 0 in
    while !steps < len do
      incr steps;
      let next =
        (* 1. keep the open parameter's run going; *)
        let continue_run =
          match !open_var with
          | None -> -1
          | Some v -> pick (fun i -> instr_var i = Some v)
        in
        if continue_run >= 0 then continue_run
        else
          (* 2. fixed gates are always safe to emit; *)
          let fixed = pick (fun i -> instr_var i = None) in
          if fixed >= 0 then fixed
          else
            (* 3. open the next parameter run (or, when the open run is
               blocked, concede and let the final monotonicity check
               reject the order). *)
            pick (fun _ -> true)
      in
      if next >= 0 then emit next else steps := len (* cycle: bail out *)
    done;
    if Array.exists (fun e -> not e) emitted then None
    else
      let c' = Circuit.of_instrs n (List.rev !out) in
      if Slice.is_monotone c' then Some c' else None
  end

(* ------------------------------------------------------------------ *)
(* Measurement-relevant cone                                           *)
(* ------------------------------------------------------------------ *)

(* A diagonal gate is measurement-irrelevant when every later instruction
   sharing one of its qubits is also diagonal: the gate then commutes all
   the way to the end of the circuit, where a diagonal factor cannot
   change any computational-basis measurement probability.  One backward
   pass decides it for every gate: [diagonal_after.(q)] holds while every
   instruction after the current one on qubit q is diagonal. *)
let measurement_irrelevant c =
  let len = Circuit.length c in
  let diagonal_after = Array.make (Circuit.n_qubits c) true in
  let irrelevant = Array.make len false in
  for idx = len - 1 downto 0 do
    let i = Circuit.instr c idx in
    let diagonal = Gate.is_diagonal i.gate in
    let qs = i.qubits in
    let ok = ref diagonal in
    for j = 0 to Array.length qs - 1 do
      if not diagonal_after.(qs.(j)) then ok := false;
      if not diagonal then diagonal_after.(qs.(j)) <- false
    done;
    irrelevant.(idx) <- !ok
  done;
  irrelevant

(* Parameters whose every gate is measurement-irrelevant: the whole
   parameter axis cannot move any measured expectation value. *)
let dead_params c =
  let irrelevant = measurement_irrelevant c in
  (* Per parameter: its gates, latest first, and whether all of them are
     irrelevant. *)
  let uses : (int, int list * bool) Hashtbl.t = Hashtbl.create 8 in
  for idx = 0 to Circuit.length c - 1 do
    match instr_var (Circuit.instr c idx) with
    | None -> ()
    | Some v ->
      let gates, dead =
        Option.value (Hashtbl.find_opt uses v) ~default:([], true)
      in
      Hashtbl.replace uses v (idx :: gates, dead && irrelevant.(idx))
  done;
  Hashtbl.fold
    (fun v (gates, dead) acc ->
      if dead then (v, List.rev gates) :: acc else acc)
    uses []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
