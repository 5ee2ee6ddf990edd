type t = { var : int option; scale : float; offset : float }

let const offset = { var = None; scale = 0.0; offset }

let var ?(scale = 1.0) ?(offset = 0.0) i =
  if scale = 0.0 then const offset else { var = Some i; scale; offset }

let zero = const 0.0

let is_const p = p.var = None

let depends_on p = p.var

let bind p theta =
  match p.var with
  | None -> p.offset
  | Some i ->
    if i >= Array.length theta then
      invalid_arg
        (Printf.sprintf "Param.bind: parameter t%d but only %d values given" i
           (Array.length theta));
    (p.scale *. theta.(i)) +. p.offset

let scale_by k p =
  if k = 0.0 || p.var = None then const (k *. p.offset)
  else { p with scale = k *. p.scale; offset = k *. p.offset }

let neg p = scale_by (-1.0) p
let half p = scale_by 0.5 p

let add a b =
  match a.var, b.var with
  | None, None -> Some (const (a.offset +. b.offset))
  | Some _, None -> Some { a with offset = a.offset +. b.offset }
  | None, Some _ -> Some { b with offset = a.offset +. b.offset }
  | Some i, Some j ->
    if i <> j then None
    else begin
      let scale = a.scale +. b.scale in
      let offset = a.offset +. b.offset in
      if scale = 0.0 then Some (const offset)
      else Some { var = Some i; scale; offset }
    end

(* [Float.equal], not [=]: a NaN angle equals itself, so an instruction
   always equals its own copy. *)
let equal a b =
  Option.equal Int.equal a.var b.var
  && Float.equal a.scale b.scale && Float.equal a.offset b.offset

let pp fmt p =
  match p.var with
  | None -> Format.fprintf fmt "%.3f" p.offset
  | Some i ->
    let coeff =
      if p.scale = 1.0 then Printf.sprintf "t%d" i
      else if p.scale = -1.0 then Printf.sprintf "-t%d" i
      else Printf.sprintf "%.2f*t%d" p.scale i
    in
    if p.offset = 0.0 then Format.pp_print_string fmt coeff
    else Format.fprintf fmt "%s%+.3f" coeff p.offset
