module BA = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) BA.t

type t = { r : int; c : int; d : buffer }
(* Row-major, interleaved: entry (i, j) has real part at d.{2*(i*c + j)} and
   imaginary part at the following index.  The backing store is a flat
   [Bigarray.Array1] of float64s: elements are unboxed, reads/writes in the
   kernels below use [unsafe_get]/[unsafe_set] (no bounds checks), and the
   buffer is shareable with C-layout consumers. *)

let rows m = m.r
let cols m = m.c

let ba_zeroed n =
  let d = BA.create Bigarray.Float64 Bigarray.C_layout n in
  BA.fill d 0.0;
  d

let create r c = { r; c; d = ba_zeroed (2 * r * c) }
let data m = m.d

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    BA.unsafe_set m.d (2 * ((i * n) + i)) 1.0
  done;
  m

let copy m =
  let d = BA.create Bigarray.Float64 Bigarray.C_layout (BA.dim m.d) in
  BA.blit m.d d;
  { m with d }

let dims_equal a b = a.r = b.r && a.c = b.c

let blit ~src ~dst =
  assert (dims_equal src dst);
  BA.blit src.d dst.d

let get m i j =
  let k = 2 * ((i * m.c) + j) in
  { Complex.re = BA.get m.d k; im = BA.get m.d (k + 1) }

let set m i j (z : Complex.t) =
  let k = 2 * ((i * m.c) + j) in
  BA.set m.d k z.re;
  BA.set m.d (k + 1) z.im

let of_array a =
  let r = Array.length a in
  assert (r > 0);
  let c = Array.length a.(0) in
  let m = create r c in
  for i = 0 to r - 1 do
    assert (Array.length a.(i) = c);
    for j = 0 to c - 1 do
      set m i j a.(i).(j)
    done
  done;
  m

let to_array m = Array.init m.r (fun i -> Array.init m.c (fun j -> get m i j))

let add_into ~dst a b =
  assert (dims_equal a b && dims_equal a dst);
  for k = 0 to BA.dim a.d - 1 do
    BA.unsafe_set dst.d k (BA.unsafe_get a.d k +. BA.unsafe_get b.d k)
  done

let add a b =
  let dst = create a.r a.c in
  add_into ~dst a b;
  dst

let sub a b =
  assert (dims_equal a b);
  let dst = create a.r a.c in
  for k = 0 to BA.dim a.d - 1 do
    BA.unsafe_set dst.d k (BA.unsafe_get a.d k -. BA.unsafe_get b.d k)
  done;
  dst

let scale_ri_into ~dst ~re:zre ~im:zim a =
  assert (dims_equal a dst);
  for k = 0 to (BA.dim a.d / 2) - 1 do
    let re = BA.unsafe_get a.d (2 * k) and im = BA.unsafe_get a.d ((2 * k) + 1) in
    BA.unsafe_set dst.d (2 * k) ((zre *. re) -. (zim *. im));
    BA.unsafe_set dst.d ((2 * k) + 1) ((zre *. im) +. (zim *. re))
  done

let scale_into ~dst (z : Complex.t) a = scale_ri_into ~dst ~re:z.re ~im:z.im a

let scale z a =
  let dst = create a.r a.c in
  scale_into ~dst z a;
  dst

let axpy_ri ~re:zre ~im:zim ~x ~y =
  assert (dims_equal x y);
  for k = 0 to (BA.dim x.d / 2) - 1 do
    let re = BA.unsafe_get x.d (2 * k) and im = BA.unsafe_get x.d ((2 * k) + 1) in
    BA.unsafe_set y.d (2 * k)
      (BA.unsafe_get y.d (2 * k) +. ((zre *. re) -. (zim *. im)));
    BA.unsafe_set y.d ((2 * k) + 1)
      (BA.unsafe_get y.d ((2 * k) + 1) +. ((zre *. im) +. (zim *. re)))
  done

let axpy ~alpha:(z : Complex.t) ~x ~y = axpy_ri ~re:z.re ~im:z.im ~x ~y

(* Tile edge for the blocked product, in elements.  48 columns of interleaved
   float64 pairs are 768 bytes, so an a-row segment plus the b-tile working
   set stays inside L1 even at the top of the tile range. *)
let mul_block = 48

(* One output tile: rows i_lo..i_hi x cols j_lo..j_hi of dst = a * b.  The k
   loop always runs its full range in ascending order, so every dst element
   accumulates in exactly the same float order as the naive triple loop —
   tiling changes which element is computed when, never the sum inside one
   element.  That is the summation-order contract the bit-for-bit
   determinism suite depends on. *)
let mul_tile (ad : buffer) (bd : buffer) (dd : buffer) p q i_lo i_hi j_lo j_hi =
  for i = i_lo to i_hi do
    let ai = 2 * i * p and di = 2 * i * q in
    for j = j_lo to j_hi do
      let sre = ref 0.0 and sim = ref 0.0 in
      let kb = ref (2 * j) in
      for k = 0 to p - 1 do
        let ka = ai + (2 * k) in
        let are = BA.unsafe_get ad ka and aim = BA.unsafe_get ad (ka + 1) in
        let bre = BA.unsafe_get bd !kb and bim = BA.unsafe_get bd (!kb + 1) in
        sre := !sre +. ((are *. bre) -. (aim *. bim));
        sim := !sim +. ((are *. bim) +. (aim *. bre));
        kb := !kb + (2 * q)
      done;
      let kd = di + (2 * j) in
      BA.unsafe_set dd kd !sre;
      BA.unsafe_set dd (kd + 1) !sim
    done
  done

(* The 4x4 product (the two-qubit gmon block size, the hot case of the
   bench workloads) runs in C, vectorized over each output row with the
   summation chain of [mul_tile]; see kernels4.c. *)
external c_mul4 : buffer -> buffer -> buffer -> unit = "pqc_mul4" [@@noalloc]

(* Precondition-free dispatch used by [mul_into] and by shape-safe internal
   hot loops ([mul_into_unchecked]).  Callers guarantee compatible shapes
   and no aliasing; violating either silently corrupts [dst]. *)
let mul_dispatch ~dst a b =
  let n = a.r and p = a.c and q = b.c in
  let ad = a.d and bd = b.d and dd = dst.d in
  if p = 4 && n = 4 && q = 4 then c_mul4 ad bd dd
  else if n <= mul_block && q <= mul_block then
    (* At most [mul_block] rows and columns is a single tile: skip the
       blocking bookkeeping entirely.  GRAPE slices up to dim 27 (three
       qutrits) take this branch; four qutrits (dim 81) are blocked. *)
    mul_tile ad bd dd p q 0 (n - 1) 0 (q - 1)
  else begin
    (* Cache-blocked over the i/j output tiles only (k never splits). *)
    let ii = ref 0 in
    while !ii < n do
      let i_hi = min n (!ii + mul_block) - 1 in
      let jj = ref 0 in
      while !jj < q do
        let j_hi = min q (!jj + mul_block) - 1 in
        mul_tile ad bd dd p q !ii i_hi !jj j_hi;
        jj := !jj + mul_block
      done;
      ii := !ii + mul_block
    done
  end

let mul_into_unchecked = mul_dispatch

let mul_into ~dst a b =
  assert (a.c = b.r && dst.r = a.r && dst.c = b.c);
  assert (dst != a && dst != b);
  mul_dispatch ~dst a b

let mul a b =
  let dst = create a.r b.c in
  mul_into ~dst a b;
  dst

let dagger_into ~dst a =
  assert (dst.r = a.c && dst.c = a.r && dst != a);
  for i = 0 to a.r - 1 do
    for j = 0 to a.c - 1 do
      let ka = 2 * ((i * a.c) + j) and kd = 2 * ((j * dst.c) + i) in
      BA.unsafe_set dst.d kd (BA.unsafe_get a.d ka);
      BA.unsafe_set dst.d (kd + 1) (-.BA.unsafe_get a.d (ka + 1))
    done
  done

let dagger a =
  let dst = create a.c a.r in
  dagger_into ~dst a;
  dst

let transpose a =
  let dst = create a.c a.r in
  for i = 0 to a.r - 1 do
    for j = 0 to a.c - 1 do
      set dst j i (get a i j)
    done
  done;
  dst

let conj a =
  let dst = copy a in
  for k = 0 to (BA.dim a.d / 2) - 1 do
    BA.unsafe_set dst.d ((2 * k) + 1) (-.BA.unsafe_get dst.d ((2 * k) + 1))
  done;
  dst

let kron a b =
  let dst = create (a.r * b.r) (a.c * b.c) in
  for ia = 0 to a.r - 1 do
    for ja = 0 to a.c - 1 do
      let za = get a ia ja in
      if za.re <> 0.0 || za.im <> 0.0 then
        for ib = 0 to b.r - 1 do
          for jb = 0 to b.c - 1 do
            let zb = get b ib jb in
            set dst ((ia * b.r) + ib) ((ja * b.c) + jb) (Complex.mul za zb)
          done
        done
    done
  done;
  dst

let trace m =
  assert (m.r = m.c);
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to m.r - 1 do
    let k = 2 * ((i * m.c) + i) in
    re := !re +. BA.unsafe_get m.d k;
    im := !im +. BA.unsafe_get m.d (k + 1)
  done;
  { Complex.re = !re; im = !im }

let trace_of_product a b =
  assert (a.c = b.r && b.c = a.r);
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to a.r - 1 do
    for j = 0 to a.c - 1 do
      let ka = 2 * ((i * a.c) + j) and kb = 2 * ((j * b.c) + i) in
      let are = BA.unsafe_get a.d ka and aim = BA.unsafe_get a.d (ka + 1) in
      let bre = BA.unsafe_get b.d kb and bim = BA.unsafe_get b.d (kb + 1) in
      re := !re +. ((are *. bre) -. (aim *. bim));
      im := !im +. ((are *. bim) +. (aim *. bre))
    done
  done;
  { Complex.re = !re; im = !im }

(* Allocation-free [trace_of_product]: results land in [dst.(0)]/[dst.(1)]
   (a float array stores doubles unboxed, so the hot GRAPE gradient loop
   allocates no Complex.t record per control/step).  Same accumulation
   order as [trace_of_product]. *)
let trace_of_product_into ~(dst : float array) a b =
  assert (a.c = b.r && b.c = a.r && Array.length dst >= 2);
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to a.r - 1 do
    for j = 0 to a.c - 1 do
      let ka = 2 * ((i * a.c) + j) and kb = 2 * ((j * b.c) + i) in
      let are = BA.unsafe_get a.d ka and aim = BA.unsafe_get a.d (ka + 1) in
      let bre = BA.unsafe_get b.d kb and bim = BA.unsafe_get b.d (kb + 1) in
      re := !re +. ((are *. bre) -. (aim *. bim));
      im := !im +. ((are *. bim) +. (aim *. bre))
    done
  done;
  dst.(0) <- !re;
  dst.(1) <- !im

let inner a b =
  assert (dims_equal a b);
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to (BA.dim a.d / 2) - 1 do
    let are = BA.unsafe_get a.d (2 * k) and aim = BA.unsafe_get a.d ((2 * k) + 1) in
    let bre = BA.unsafe_get b.d (2 * k) and bim = BA.unsafe_get b.d ((2 * k) + 1) in
    (* conj(a) * b *)
    re := !re +. ((are *. bre) +. (aim *. bim));
    im := !im +. ((are *. bim) -. (aim *. bre))
  done;
  { Complex.re = !re; im = !im }

let frobenius_norm m =
  let s = ref 0.0 in
  for k = 0 to BA.dim m.d - 1 do
    let x = BA.unsafe_get m.d k in
    s := !s +. (x *. x)
  done;
  sqrt !s

let one_norm m =
  let best = ref 0.0 in
  for j = 0 to m.c - 1 do
    let s = ref 0.0 in
    for i = 0 to m.r - 1 do
      let k = 2 * ((i * m.c) + j) in
      let re = BA.unsafe_get m.d k and im = BA.unsafe_get m.d (k + 1) in
      s := !s +. sqrt ((re *. re) +. (im *. im))
    done;
    if !s > !best then best := !s
  done;
  !best

let max_abs_diff a b =
  assert (dims_equal a b);
  let best = ref 0.0 in
  for k = 0 to (BA.dim a.d / 2) - 1 do
    let dre = BA.unsafe_get a.d (2 * k) -. BA.unsafe_get b.d (2 * k) in
    let dim = BA.unsafe_get a.d ((2 * k) + 1) -. BA.unsafe_get b.d ((2 * k) + 1) in
    let m = sqrt ((dre *. dre) +. (dim *. dim)) in
    if m > !best then best := m
  done;
  !best

let is_unitary ?(tol = 1e-9) m =
  m.r = m.c && max_abs_diff (mul (dagger m) m) (identity m.r) <= tol

let apply m v =
  assert (m.c = Cvec.dim v);
  let out = Cvec.create m.r in
  for i = 0 to m.r - 1 do
    let s = ref Complex.zero in
    for j = 0 to m.c - 1 do
      s := Complex.add !s (Complex.mul (get m i j) (Cvec.get v j))
    done;
    Cvec.set out i !s
  done;
  out

let random_hermitian rng n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i { Complex.re = Pqc_util.Rng.gaussian rng; im = 0.0 };
    for j = i + 1 to n - 1 do
      let z = { Complex.re = Pqc_util.Rng.gaussian rng; im = Pqc_util.Rng.gaussian rng } in
      set m i j z;
      set m j i (Complex.conj z)
    done
  done;
  m
