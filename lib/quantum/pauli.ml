module Cvec = Pqc_linalg.Cvec
module Cmat = Pqc_linalg.Cmat
type op = I | X | Y | Z

type term = { coeff : float; ops : op array }

type t = { n_qubits : int; terms : term list }

let make n_qubits l =
  List.iter
    (fun (_, ops) ->
      if Array.length ops <> n_qubits then
        invalid_arg "Pauli.make: string length must equal qubit count")
    l;
  { n_qubits; terms = List.map (fun (coeff, ops) -> { coeff; ops }) l }

let op_of_char = function
  | 'i' | 'I' -> I
  | 'x' | 'X' -> X
  | 'y' | 'Y' -> Y
  | 'z' | 'Z' -> Z
  | c -> invalid_arg (Printf.sprintf "Pauli.of_strings: bad operator %c" c)

let of_strings n l =
  make n
    (List.map
       (fun (coeff, s) ->
         (coeff, Array.init (String.length s) (fun i -> op_of_char s.[i])))
       l)

let is_identity t = Array.for_all (fun o -> o = I) t.ops

let identity_coefficient h =
  List.fold_left
    (fun acc t -> if is_identity t then acc +. t.coeff else acc)
    0.0 h.terms

let op_matrix = function
  | I -> Cmat.identity 2
  | X -> Gate.matrix Gate.X ~theta:[||]
  | Y -> Gate.matrix Gate.Y ~theta:[||]
  | Z -> Gate.matrix Gate.Z ~theta:[||]

let term_matrix t =
  let m =
    Array.fold_left (fun acc o -> Cmat.kron acc (op_matrix o)) (Cmat.identity 1) t.ops
  in
  Cmat.scale { Complex.re = t.coeff; im = 0.0 } m

let matrix h =
  let dim = 1 lsl h.n_qubits in
  List.fold_left (fun acc t -> Cmat.add acc (term_matrix t)) (Cmat.create dim dim)
    h.terms

let expectation h psi =
  assert (Cvec.dim psi = 1 lsl h.n_qubits);
  let term_value t =
    if is_identity t then t.coeff
    else begin
      let phi = Cvec.copy psi in
      Array.iteri
        (fun q o ->
          match o with
          | I -> ()
          | X | Y | Z -> Statevec.apply_matrix phi (op_matrix o) [| q |])
        t.ops;
      t.coeff *. (Cvec.dot psi phi).re
    end
  in
  List.fold_left (fun acc t -> acc +. term_value t) 0.0 h.terms
