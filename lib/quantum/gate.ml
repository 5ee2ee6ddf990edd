module Cmat = Pqc_linalg.Cmat
type t =
  | Rx of Param.t
  | Ry of Param.t
  | Rz of Param.t
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | CX
  | CZ
  | Swap
  | ISwap

let arity = function
  | Rx _ | Ry _ | Rz _ | X | Y | Z | H | S | Sdg | T | Tdg -> 1
  | CX | CZ | Swap | ISwap -> 2

let name = function
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | CX -> "cx"
  | CZ -> "cz"
  | Swap -> "swap"
  | ISwap -> "iswap"

let param = function
  | Rx p | Ry p | Rz p -> Some p
  | X | Y | Z | H | S | Sdg | T | Tdg | CX | CZ | Swap | ISwap -> None

let depends_on = function
  | Rx p | Ry p | Rz p -> Param.depends_on p
  | X | Y | Z | H | S | Sdg | T | Tdg | CX | CZ | Swap | ISwap -> None

let is_parametrized g =
  match depends_on g with Some _ -> true | None -> false

let map_param f = function
  | Rx p -> Rx (f p)
  | Ry p -> Ry (f p)
  | Rz p -> Rz (f p)
  | (X | Y | Z | H | S | Sdg | T | Tdg | CX | CZ | Swap | ISwap) as g -> g

let c re im = { Complex.re; im }
let c0 = c 0.0 0.0
let c1 = c 1.0 0.0
let ci = c 0.0 1.0
let cni = c 0.0 (-1.0)

let mat2 a b d e = Cmat.of_array [| [| a; b |]; [| d; e |] |]

let mat4 r0 r1 r2 r3 = Cmat.of_array [| r0; r1; r2; r3 |]

let matrix g ~theta =
  let angle p = Param.bind p theta in
  match g with
  | Rx p ->
    let t = angle p /. 2.0 in
    mat2 (c (cos t) 0.0) (c 0.0 (-.sin t)) (c 0.0 (-.sin t)) (c (cos t) 0.0)
  | Ry p ->
    let t = angle p /. 2.0 in
    mat2 (c (cos t) 0.0) (c (-.sin t) 0.0) (c (sin t) 0.0) (c (cos t) 0.0)
  | Rz p ->
    let t = angle p /. 2.0 in
    mat2 (c (cos t) (-.sin t)) c0 c0 (c (cos t) (sin t))
  | X -> mat2 c0 c1 c1 c0
  | Y -> mat2 c0 cni ci c0
  | Z -> mat2 c1 c0 c0 (c (-1.0) 0.0)
  | H ->
    let s = 1.0 /. sqrt 2.0 in
    mat2 (c s 0.0) (c s 0.0) (c s 0.0) (c (-.s) 0.0)
  | S -> mat2 c1 c0 c0 ci
  | Sdg -> mat2 c1 c0 c0 cni
  | T -> mat2 c1 c0 c0 (Complex.exp (c 0.0 (Float.pi /. 4.0)))
  | Tdg -> mat2 c1 c0 c0 (Complex.exp (c 0.0 (-.Float.pi /. 4.0)))
  | CX ->
    mat4 [| c1; c0; c0; c0 |] [| c0; c1; c0; c0 |] [| c0; c0; c0; c1 |]
      [| c0; c0; c1; c0 |]
  | CZ ->
    mat4 [| c1; c0; c0; c0 |] [| c0; c1; c0; c0 |] [| c0; c0; c1; c0 |]
      [| c0; c0; c0; c (-1.0) 0.0 |]
  | Swap ->
    mat4 [| c1; c0; c0; c0 |] [| c0; c0; c1; c0 |] [| c0; c1; c0; c0 |]
      [| c0; c0; c0; c1 |]
  | ISwap ->
    mat4 [| c1; c0; c0; c0 |] [| c0; c0; ci; c0 |] [| c0; ci; c0; c0 |]
      [| c0; c0; c0; c1 |]

let inverse = function
  | Rx p -> Some (Rx (Param.neg p))
  | Ry p -> Some (Ry (Param.neg p))
  | Rz p -> Some (Rz (Param.neg p))
  | (X | Y | Z | H | CX | CZ | Swap) as g -> Some g
  | S -> Some Sdg
  | Sdg -> Some S
  | T -> Some Tdg
  | Tdg -> Some T
  | ISwap -> None

let is_self_inverse = function
  | X | Y | Z | H | CX | CZ | Swap -> true
  | Rx _ | Ry _ | Rz _ | S | Sdg | T | Tdg | ISwap -> false

let is_diagonal = function
  | Rz _ | Z | S | Sdg | T | Tdg | CZ -> true
  | Rx _ | Ry _ | X | Y | H | CX | Swap | ISwap -> false

let rotation_axis = function
  | Rx _ | X -> Some `X
  | Ry _ | Y -> Some `Y
  | Rz _ | Z | S | Sdg | T | Tdg -> Some `Z
  | H | CX | CZ | Swap | ISwap -> None

let to_string g =
  match param g with
  | None -> name g
  | Some p -> Format.asprintf "%s(%a)" (name g) Param.pp p
