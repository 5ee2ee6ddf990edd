let beta1 = 0.9
let beta2 = 0.999
let epsilon = 1e-8

type t = { m : float array; v : float array; mutable step_count : int }

let create dim =
  { m = Array.make dim 0.0; v = Array.make dim 0.0; step_count = 0 }

let step t ~learning_rate ~params ~grad =
  assert (Array.length params = Array.length t.m);
  assert (Array.length grad = Array.length t.m);
  t.step_count <- t.step_count + 1;
  let k = float_of_int t.step_count in
  let bias1 = 1.0 -. (beta1 ** k) in
  let bias2 = 1.0 -. (beta2 ** k) in
  for i = 0 to Array.length params - 1 do
    t.m.(i) <- (beta1 *. t.m.(i)) +. ((1.0 -. beta1) *. grad.(i));
    t.v.(i) <- (beta2 *. t.v.(i)) +. ((1.0 -. beta2) *. grad.(i) *. grad.(i));
    let m_hat = t.m.(i) /. bias1 and v_hat = t.v.(i) /. bias2 in
    params.(i) <- params.(i) -. (learning_rate *. m_hat /. (sqrt v_hat +. epsilon))
  done

let reset t =
  Array.fill t.m 0 (Array.length t.m) 0.0;
  Array.fill t.v 0 (Array.length t.v) 0.0;
  t.step_count <- 0
