module Cvec = Pqc_linalg.Cvec
module Cmat = Pqc_linalg.Cmat
type instr = { gate : Gate.t; qubits : int array }

type t = { n : int; ops : instr array }

let n_qubits c = c.n
let length c = Array.length c.ops
let instrs c = Array.copy c.ops
let instr c i = c.ops.(i)

let validate_instr n { gate; qubits } =
  let k = Array.length qubits in
  if k <> Gate.arity gate then
    invalid_arg
      (Printf.sprintf "Circuit: gate %s expects %d operands, got %d"
         (Gate.name gate) (Gate.arity gate) k);
  for j = 0 to k - 1 do
    let q = qubits.(j) in
    if q < 0 || q >= n then
      invalid_arg (Printf.sprintf "Circuit: qubit %d out of range [0,%d)" q n)
  done;
  if k = 2 && qubits.(0) = qubits.(1) then
    invalid_arg "Circuit: duplicate operand on two-qubit gate"

let of_array n ops =
  if n <= 0 then invalid_arg "Circuit: width must be positive";
  Array.iter (validate_instr n) ops;
  { n; ops }

let of_instrs n l = of_array n (Array.of_list l)

let empty n = of_instrs n []

let of_gates n l =
  of_instrs n
    (List.map (fun (gate, qs) -> { gate; qubits = Array.of_list qs }) l)

let append c gate qs =
  let i = { gate; qubits = Array.of_list qs } in
  validate_instr c.n i;
  { c with ops = Array.append c.ops [| i |] }

let extend c gates =
  let extra =
    List.map
      (fun (gate, qs) ->
        let i = { gate; qubits = Array.of_list qs } in
        validate_instr c.n i;
        i)
      gates
  in
  { c with ops = Array.append c.ops (Array.of_list extra) }

let concat a b =
  if a.n <> b.n then invalid_arg "Circuit.concat: width mismatch";
  { n = a.n; ops = Array.append a.ops b.ops }

let iter f c = Array.iter f c.ops

(* An instruction whose gate [f] returns unchanged is shared, not
   copied. *)
let map_gates f c =
  { c with
    ops =
      Array.map
        (fun i ->
          let gate = f i.gate in
          if gate == i.gate then i else { i with gate })
        c.ops }

let bind c theta =
  map_gates (Gate.map_param (fun p -> Param.const (Param.bind p theta))) c

module Int_set = Set.Make (Int)

let depends c =
  Array.fold_left
    (fun acc i ->
      match Gate.depends_on i.gate with
      | None -> acc
      | Some v -> Int_set.add v acc)
    Int_set.empty c.ops
  |> Int_set.elements

let n_params c =
  Array.fold_left
    (fun acc i ->
      match Gate.depends_on i.gate with
      | Some v -> max acc (v + 1)
      | None -> acc)
    0 c.ops

let count c ~f =
  Array.fold_left (fun acc i -> if f i then acc + 1 else acc) 0 c.ops

let parametrized_gate_count c = count c ~f:(fun i -> Gate.is_parametrized i.gate)

let two_qubit_count c = count c ~f:(fun i -> Array.length i.qubits = 2)

let gate_counts c =
  let tbl = Hashtbl.create 16 in
  iter
    (fun i ->
      let k = Gate.name i.gate in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    c;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let qubit_used c q = Array.exists (fun i -> Array.mem q i.qubits) c.ops

let relabel c ~n ~mapping =
  of_array n
    (Array.map (fun i -> { i with qubits = Array.map mapping i.qubits }) c.ops)

let inverse c =
  let rec invert acc = function
    | [] -> Some acc
    | i :: rest ->
      (match Gate.inverse i.gate with
      | None -> None
      | Some g -> invert ({ i with gate = g } :: acc) rest)
  in
  (* Inverting reverses order; folding the forward list into an accumulator
     already yields the reversed sequence. *)
  Option.map
    (fun l -> { c with ops = Array.of_list l })
    (invert [] (Array.to_list c.ops))

let embed ~n g qubits =
  let k = Array.length qubits in
  assert (Cmat.rows g = 1 lsl k && Cmat.cols g = 1 lsl k);
  let dim = 1 lsl n in
  let m = Cmat.create dim dim in
  (* Bit position of qubit q in a basis index (qubit 0 most significant). *)
  let pos q = n - 1 - q in
  let sub_of idx =
    let s = ref 0 in
    for j = 0 to k - 1 do
      if idx land (1 lsl pos qubits.(j)) <> 0 then s := !s lor (1 lsl (k - 1 - j))
    done;
    !s
  in
  let with_sub idx sub =
    let r = ref idx in
    for j = 0 to k - 1 do
      let bit = 1 lsl pos qubits.(j) in
      if sub land (1 lsl (k - 1 - j)) <> 0 then r := !r lor bit
      else r := !r land lnot bit
    done;
    !r
  in
  for col = 0 to dim - 1 do
    let sub_c = sub_of col in
    for sub_r = 0 to (1 lsl k) - 1 do
      let row = with_sub col sub_r in
      Cmat.set m row col (Cmat.get g sub_r sub_c)
    done
  done;
  m

let unitary ?(theta = [||]) c =
  assert (c.n <= 12);
  let dim = 1 lsl c.n in
  let acc = ref (Cmat.identity dim) in
  iter
    (fun i ->
      let g = embed ~n:c.n (Gate.matrix i.gate ~theta) i.qubits in
      acc := Cmat.mul g !acc)
    c;
  !acc

let pp fmt c =
  Format.fprintf fmt "circuit[%d qubits, %d gates]:@." c.n (length c);
  iter
    (fun i ->
      Format.fprintf fmt "  %s %s@." (Gate.to_string i.gate)
        (String.concat "," (List.map string_of_int (Array.to_list i.qubits))))
    c

module Builder = struct

  type t = { n : int; mutable rev : instr list; mutable len : int }

  let create n = { n; rev = []; len = 0 }

  let add b gate qs =
    let i = { gate; qubits = Array.of_list qs } in
    validate_instr b.n i;
    b.rev <- i :: b.rev;
    b.len <- b.len + 1

  let add_circuit b c =
    if n_qubits c <> b.n then invalid_arg "Builder.add_circuit: width mismatch";
    iter
      (fun i ->
        b.rev <- i :: b.rev;
        b.len <- b.len + 1)
      c

  let length b = b.len

  let to_circuit b =
    { n = b.n; ops = Array.of_list (List.rev b.rev) }
end
