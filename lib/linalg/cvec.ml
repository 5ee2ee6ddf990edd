module BA = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) BA.t

type t = { n : int; d : buffer }
(* Interleaved like Cmat: component k's real part at d.{2k}, imaginary part
   at d.{2k+1}, stored unboxed in a flat float64 Bigarray. *)

let dim v = v.n

let create n =
  let d = BA.create Bigarray.Float64 Bigarray.C_layout (2 * n) in
  BA.fill d 0.0;
  { n; d }

let basis n k =
  assert (k >= 0 && k < n);
  let v = create n in
  BA.set v.d (2 * k) 1.0;
  v

let copy v =
  let d = BA.create Bigarray.Float64 Bigarray.C_layout (2 * v.n) in
  BA.blit v.d d;
  { v with d }

let get v k = { Complex.re = BA.get v.d (2 * k); im = BA.get v.d ((2 * k) + 1) }

let set v k (z : Complex.t) =
  BA.set v.d (2 * k) z.re;
  BA.set v.d ((2 * k) + 1) z.im

let of_array a =
  let v = create (Array.length a) in
  Array.iteri (fun k z -> set v k z) a;
  v

let dot a b =
  assert (a.n = b.n);
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to a.n - 1 do
    let are = BA.unsafe_get a.d (2 * k) and aim = BA.unsafe_get a.d ((2 * k) + 1) in
    let bre = BA.unsafe_get b.d (2 * k) and bim = BA.unsafe_get b.d ((2 * k) + 1) in
    re := !re +. ((are *. bre) +. (aim *. bim));
    im := !im +. ((are *. bim) -. (aim *. bre))
  done;
  { Complex.re = !re; im = !im }

let norm v = sqrt (dot v v).re

let scale (z : Complex.t) v =
  let out = create v.n in
  for k = 0 to v.n - 1 do
    set out k (Complex.mul z (get v k))
  done;
  out

let normalize v =
  let n = norm v in
  if n = 0.0 then invalid_arg "Cvec.normalize: zero vector";
  scale { Complex.re = 1.0 /. n; im = 0.0 } v

let max_abs_diff a b =
  assert (a.n = b.n);
  let best = ref 0.0 in
  for k = 0 to a.n - 1 do
    let m = Complex.norm (Complex.sub (get a k) (get b k)) in
    if m > !best then best := m
  done;
  !best

let probability v k =
  let re = BA.get v.d (2 * k) and im = BA.get v.d ((2 * k) + 1) in
  (re *. re) +. (im *. im)

let unsafe_data v = v.d

let blit ~src ~dst =
  assert (src.n = dst.n);
  BA.blit src.d dst.d
