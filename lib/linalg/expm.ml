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
     the 2x2 case (the single-qubit GRAPE slice regime, where loop overhead
     rivals the arithmetic) is fully unrolled; even dimensions take the
     two-elements-per-round loop; odd dimensions leave one trailing
     element. *)
  if len = 8 then begin
    taylor_elem td sd ad c 0;
    taylor_elem td sd ad c 2;
    taylor_elem td sd ad c 4;
    taylor_elem td sd ad c 6
  end
  else begin
    let k = ref 0 in
    while !k + 4 <= len do
      let i = !k in
      taylor_elem td sd ad c i;
      taylor_elem td sd ad c (i + 2);
      k := i + 4
    done;
    if !k < len then taylor_elem td sd ad c !k
  end

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

(* Fully specialized n = 2 exponential: the single-qubit GRAPE slice regime,
   where buffer traffic and loop overhead rival the arithmetic.  The whole
   Taylor/squaring state lives in unboxed locals; every expression
   transcribes the generic path operation for operation ([mul2]'s summation
   chains, [taylor_elem]'s fused update, [Cmat.one_norm]'s column order), so
   the result is bit-identical to the generic code. *)
let expm2_into ~dst a =
  let ad = Cmat.data a in
  let x0r = BA.unsafe_get ad 0 and x0i = BA.unsafe_get ad 1 in
  let x1r = BA.unsafe_get ad 2 and x1i = BA.unsafe_get ad 3 in
  let x2r = BA.unsafe_get ad 4 and x2i = BA.unsafe_get ad 5 in
  let x3r = BA.unsafe_get ad 6 and x3i = BA.unsafe_get ad 7 in
  (* one_norm: column 0 is {x0, x2}, column 1 is {x1, x3}, rows ascending. *)
  let c0 =
    (0.0 +. sqrt ((x0r *. x0r) +. (x0i *. x0i)))
    +. sqrt ((x2r *. x2r) +. (x2i *. x2i))
  in
  let c1 =
    (0.0 +. sqrt ((x1r *. x1r) +. (x1i *. x1i)))
    +. sqrt ((x3r *. x3r) +. (x3i *. x3i))
  in
  let best = if c0 > 0.0 then c0 else 0.0 in
  let norm = if c1 > best then c1 else best in
  let s = scaling_exponent norm in
  let inv = Float.ldexp 1.0 (-s) in
  (* scaled = inv * a (scale_ri_into with re = inv, im = 0). *)
  let y0r = (inv *. x0r) -. (0.0 *. x0i) and y0i = (inv *. x0i) +. (0.0 *. x0r) in
  let y1r = (inv *. x1r) -. (0.0 *. x1i) and y1i = (inv *. x1i) +. (0.0 *. x1r) in
  let y2r = (inv *. x2r) -. (0.0 *. x2i) and y2i = (inv *. x2i) +. (0.0 *. x2r) in
  let y3r = (inv *. x3r) -. (0.0 *. x3i) and y3i = (inv *. x3i) +. (0.0 *. x3r) in
  (* term = I, acc = I. *)
  let t0r = ref 1.0 and t0i = ref 0.0 and t1r = ref 0.0 and t1i = ref 0.0 in
  let t2r = ref 0.0 and t2i = ref 0.0 and t3r = ref 1.0 and t3i = ref 0.0 in
  let q0r = ref 1.0 and q0i = ref 0.0 and q1r = ref 0.0 and q1i = ref 0.0 in
  let q2r = ref 0.0 and q2i = ref 0.0 and q3r = ref 1.0 and q3i = ref 0.0 in
  for k = 1 to taylor_order do
    let c = 1.0 /. float_of_int k in
    (* term' = term * scaled: mul2 with b00=y0, b01=y1, b10=y2, b11=y3. *)
    let p0r =
      (0.0 +. ((!t0r *. y0r) -. (!t0i *. y0i)))
      +. ((!t1r *. y2r) -. (!t1i *. y2i))
    in
    let p0i =
      (0.0 +. ((!t0r *. y0i) +. (!t0i *. y0r)))
      +. ((!t1r *. y2i) +. (!t1i *. y2r))
    in
    let p1r =
      (0.0 +. ((!t0r *. y1r) -. (!t0i *. y1i)))
      +. ((!t1r *. y3r) -. (!t1i *. y3i))
    in
    let p1i =
      (0.0 +. ((!t0r *. y1i) +. (!t0i *. y1r)))
      +. ((!t1r *. y3i) +. (!t1i *. y3r))
    in
    let p2r =
      (0.0 +. ((!t2r *. y0r) -. (!t2i *. y0i)))
      +. ((!t3r *. y2r) -. (!t3i *. y2i))
    in
    let p2i =
      (0.0 +. ((!t2r *. y0i) +. (!t2i *. y0r)))
      +. ((!t3r *. y2i) +. (!t3i *. y2r))
    in
    let p3r =
      (0.0 +. ((!t2r *. y1r) -. (!t2i *. y1i)))
      +. ((!t3r *. y3r) -. (!t3i *. y3i))
    in
    let p3i =
      (0.0 +. ((!t2r *. y1i) +. (!t2i *. y1r)))
      +. ((!t3r *. y3i) +. (!t3i *. y3r))
    in
    (* term = c * term'; acc += term (taylor_elem, element for element). *)
    let s0r = (c *. p0r) -. (0.0 *. p0i) and s0i = (c *. p0i) +. (0.0 *. p0r) in
    t0r := s0r;
    t0i := s0i;
    q0r := !q0r +. ((1.0 *. s0r) -. (0.0 *. s0i));
    q0i := !q0i +. ((1.0 *. s0i) +. (0.0 *. s0r));
    let s1r = (c *. p1r) -. (0.0 *. p1i) and s1i = (c *. p1i) +. (0.0 *. p1r) in
    t1r := s1r;
    t1i := s1i;
    q1r := !q1r +. ((1.0 *. s1r) -. (0.0 *. s1i));
    q1i := !q1i +. ((1.0 *. s1i) +. (0.0 *. s1r));
    let s2r = (c *. p2r) -. (0.0 *. p2i) and s2i = (c *. p2i) +. (0.0 *. p2r) in
    t2r := s2r;
    t2i := s2i;
    q2r := !q2r +. ((1.0 *. s2r) -. (0.0 *. s2i));
    q2i := !q2i +. ((1.0 *. s2i) +. (0.0 *. s2r));
    let s3r = (c *. p3r) -. (0.0 *. p3i) and s3i = (c *. p3i) +. (0.0 *. p3r) in
    t3r := s3r;
    t3i := s3i;
    q3r := !q3r +. ((1.0 *. s3r) -. (0.0 *. s3i));
    q3i := !q3i +. ((1.0 *. s3i) +. (0.0 *. s3r))
  done;
  (* Squaring: acc = acc * acc, s times (mul2 with a = b = acc). *)
  for _ = 1 to s do
    let b0r = !q0r and b0i = !q0i and b1r = !q1r and b1i = !q1i in
    let b2r = !q2r and b2i = !q2i and b3r = !q3r and b3i = !q3i in
    let p0r =
      (0.0 +. ((b0r *. b0r) -. (b0i *. b0i))) +. ((b1r *. b2r) -. (b1i *. b2i))
    in
    let p0i =
      (0.0 +. ((b0r *. b0i) +. (b0i *. b0r))) +. ((b1r *. b2i) +. (b1i *. b2r))
    in
    let p1r =
      (0.0 +. ((b0r *. b1r) -. (b0i *. b1i))) +. ((b1r *. b3r) -. (b1i *. b3i))
    in
    let p1i =
      (0.0 +. ((b0r *. b1i) +. (b0i *. b1r))) +. ((b1r *. b3i) +. (b1i *. b3r))
    in
    let p2r =
      (0.0 +. ((b2r *. b0r) -. (b2i *. b0i))) +. ((b3r *. b2r) -. (b3i *. b2i))
    in
    let p2i =
      (0.0 +. ((b2r *. b0i) +. (b2i *. b0r))) +. ((b3r *. b2i) +. (b3i *. b2r))
    in
    let p3r =
      (0.0 +. ((b2r *. b1r) -. (b2i *. b1i))) +. ((b3r *. b3r) -. (b3i *. b3i))
    in
    let p3i =
      (0.0 +. ((b2r *. b1i) +. (b2i *. b1r))) +. ((b3r *. b3i) +. (b3i *. b3r))
    in
    q0r := p0r;
    q0i := p0i;
    q1r := p1r;
    q1i := p1i;
    q2r := p2r;
    q2i := p2i;
    q3r := p3r;
    q3i := p3i
  done;
  let dd = Cmat.data dst in
  BA.unsafe_set dd 0 !q0r;
  BA.unsafe_set dd 1 !q0i;
  BA.unsafe_set dd 2 !q1r;
  BA.unsafe_set dd 3 !q1i;
  BA.unsafe_set dd 4 !q2r;
  BA.unsafe_set dd 5 !q2i;
  BA.unsafe_set dd 6 !q3r;
  BA.unsafe_set dd 7 !q3i

(* The n = 4 exponential (the two-qubit gmon slice, nearly every call on the
   bench workloads) runs in C: the generic algorithm below, vectorized over
   split real/imaginary rows with the same float chain; see kernels4.c. *)
external c_expm4 : Cmat.buffer -> Cmat.buffer -> unit = "pqc_expm4" [@@noalloc]

let rec expm_into ws ~dst a =
  assert (Cmat.rows a = ws.n && Cmat.cols a = ws.n);
  assert (Cmat.rows dst = ws.n && Cmat.cols dst = ws.n);
  if ws.n = 2 then expm2_into ~dst a
  else if ws.n = 4 then c_expm4 (Cmat.data a) (Cmat.data dst)
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
