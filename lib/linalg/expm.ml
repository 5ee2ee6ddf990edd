module BA = Bigarray.Array1

type ws = {
  n : int;
  id : Cmat.t; (* identity, built once; expm_into only reads it *)
  scaled : Cmat.t; (* A / 2^s *)
  term : Cmat.t; (* current Taylor term *)
  term' : Cmat.t; (* next Taylor term scratch *)
  acc : Cmat.t; (* Taylor partial sum *)
  sq : Cmat.t; (* squaring scratch *)
}

let make_ws n =
  { n; id = Cmat.identity n; scaled = Cmat.create n n; term = Cmat.create n n;
    term' = Cmat.create n n; acc = Cmat.create n n; sq = Cmat.create n n }

(* With the norm scaled below 1/2, a degree-13 Taylor truncation has error
   bounded by (1/2)^14 / 14! ~ 7e-16, i.e. machine precision. *)
let taylor_order = 13

(* Fused Taylor step: term = c * term'; acc += term, in one pass over the
   buffers.  Per element this performs exactly the operations of
   [Cmat.scale_ri_into ~re:c ~im:0.0] followed by
   [Cmat.axpy_ri ~re:1.0 ~im:0.0], in the same order, so the fusion is
   bit-invisible; it just halves the loop overhead of the hot Taylor
   update at GRAPE's small slice dimensions. *)
(* One complex element of the fused Taylor update at flat offset [i]. *)
let[@inline] taylor_elem (td : Cmat.buffer) (sd : Cmat.buffer)
    (ad : Cmat.buffer) c i =
  let re = BA.unsafe_get sd i and im = BA.unsafe_get sd (i + 1) in
  let sre = (c *. re) -. (0.0 *. im) in
  let sim = (c *. im) +. (0.0 *. re) in
  BA.unsafe_set td i sre;
  BA.unsafe_set td (i + 1) sim;
  BA.unsafe_set ad i (BA.unsafe_get ad i +. ((1.0 *. sre) -. (0.0 *. sim)));
  BA.unsafe_set ad (i + 1)
    (BA.unsafe_get ad (i + 1) +. ((1.0 *. sim) +. (0.0 *. sre)))

let[@inline] taylor_step ~term ~term' ~acc c =
  let td = Cmat.data term and sd = Cmat.data term' and ad = Cmat.data acc in
  let len = BA.dim td in
  (* Elements are independent, so unrolling is bit-invisible.  len = 2n^2:
     even dimensions take the two-elements-per-round loop; odd dimensions
     leave one trailing element. *)
  let k = ref 0 in
  while !k + 4 <= len do
    let i = !k in
    taylor_elem td sd ad c i;
    taylor_elem td sd ad c (i + 2);
    k := i + 4
  done;
  if !k < len then taylor_elem td sd ad c !k

(* Squarings needed to bring the one-norm to at most 1/2.  A non-finite
   ceiling (an infinite norm, from a diverged GRAPE run) gives 0, the value
   amd64's [int_of_float] returned: OCaml leaves the conversion unspecified
   there and C leaves it undefined, so every path, kernels4.c included,
   tests first. *)
let[@inline] scaling_exponent norm =
  if norm <= 0.5 then 0
  else
    let c = ceil (log (norm /. 0.5) /. log 2.0) in
    if Float.is_finite c then int_of_float c else 0

(* The n = 4 exponential (the two-qubit gmon slice, nearly every call on the
   bench workloads) runs in C: the generic algorithm below, vectorized over
   split real/imaginary rows with the same float chain; see kernels4.c. *)
external c_expm4 : Cmat.buffer -> Cmat.buffer -> unit = "pqc_expm4" [@@noalloc]

let rec expm_into ws ~dst a =
  assert (Cmat.rows a = ws.n && Cmat.cols a = ws.n);
  assert (Cmat.rows dst = ws.n && Cmat.cols dst = ws.n);
  if ws.n = 4 then c_expm4 (Cmat.data a) (Cmat.data dst)
  else expm_generic_into ws ~dst a

and expm_generic_into ws ~dst a =
  let ad = Cmat.data a in
  (* [Cmat.one_norm], written out over the flat buffer so the value never
     crosses a function boundary (a float return is boxed in vanilla
     ocamlopt; expm runs once per GRAPE slice per iteration and those boxes
     are pure minor-GC pressure).  Same accumulation order. *)
  let norm =
    let n = ws.n in
    let best = ref 0.0 in
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        let k = 2 * ((i * n) + j) in
        let re = BA.unsafe_get ad k and im = BA.unsafe_get ad (k + 1) in
        s := !s +. sqrt ((re *. re) +. (im *. im))
      done;
      if !s > !best then best := !s
    done;
    !best
  in
  let s = scaling_exponent norm in
  let inv = Float.ldexp 1.0 (-s) in
  (* scaled = inv * a, transcribing [Cmat.scale_ri_into ~re:inv ~im:0.0]. *)
  (let sd = Cmat.data ws.scaled in
   let len = BA.dim ad in
   let k = ref 0 in
   while !k < len do
     let i = !k in
     let re = BA.unsafe_get ad i and im = BA.unsafe_get ad (i + 1) in
     BA.unsafe_set sd i ((inv *. re) -. (0.0 *. im));
     BA.unsafe_set sd (i + 1) ((inv *. im) +. (0.0 *. re));
     k := i + 2
   done);
  (* Taylor: acc = I + B + B^2/2! + ... *)
  Cmat.blit ~src:ws.id ~dst:ws.acc;
  Cmat.blit ~src:ws.id ~dst:ws.term;
  (* Workspace matrices are all n x n and pairwise distinct, so the
     unchecked matmul entry is safe here and in the squaring loop. *)
  for k = 1 to taylor_order do
    Cmat.mul_into_unchecked ~dst:ws.term' ws.term ws.scaled;
    taylor_step ~term:ws.term ~term':ws.term' ~acc:ws.acc
      (1.0 /. float_of_int k)
  done;
  (* Undo the scaling: square s times, ping-ponging between [acc] and [sq]
     instead of copying after every squaring. *)
  let src = ref ws.acc and tmp = ref ws.sq in
  for _ = 1 to s do
    Cmat.mul_into_unchecked ~dst:!tmp !src !src;
    let t = !src in
    src := !tmp;
    tmp := t
  done;
  Cmat.blit ~src:!src ~dst:dst

let expm a =
  let n = Cmat.rows a in
  assert (n = Cmat.cols a);
  let ws = make_ws n in
  let dst = Cmat.create n n in
  expm_into ws ~dst a;
  dst

let expm_i_hermitian ?(t = 1.0) h =
  expm (Cmat.scale { Complex.re = 0.0; im = -.t } h)
