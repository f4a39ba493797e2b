(* Outward-rounded dyadic intervals. *)

module D = Dyadic

type t = { lo : D.t; hi : D.t }

let make lo hi =
  if D.compare lo hi > 0 then invalid_arg "Ival.make: lo > hi";
  { lo; hi }

let point d = { lo = d; hi = d }
let of_int n = point (D.of_int n)

let of_rat ~prec q =
  { lo = D.of_rat D.Down ~prec q; hi = D.of_rat D.Up ~prec q }

let to_rats iv = (D.to_rat iv.lo, D.to_rat iv.hi)
let lo iv = iv.lo
let hi iv = iv.hi

let neg iv = { lo = D.neg iv.hi; hi = D.neg iv.lo }

let add ~prec a b =
  { lo = D.round D.Down ~prec (D.add a.lo b.lo);
    hi = D.round D.Up ~prec (D.add a.hi b.hi) }

let sub ~prec a b = add ~prec a (neg b)

let mul ~prec a b =
  let products = [ D.mul a.lo b.lo; D.mul a.lo b.hi; D.mul a.hi b.lo; D.mul a.hi b.hi ] in
  let lo = List.fold_left D.min (List.hd products) (List.tl products) in
  let hi = List.fold_left D.max (List.hd products) (List.tl products) in
  { lo = D.round D.Down ~prec lo; hi = D.round D.Up ~prec hi }

let div ~prec a b =
  if D.sign b.lo <= 0 && D.sign b.hi >= 0 then raise Division_by_zero;
  let q lo_dir x y = D.div lo_dir ~prec x y in
  let candidates_lo =
    [ q D.Down a.lo b.lo; q D.Down a.lo b.hi; q D.Down a.hi b.lo; q D.Down a.hi b.hi ]
  in
  let candidates_hi =
    [ q D.Up a.lo b.lo; q D.Up a.lo b.hi; q D.Up a.hi b.lo; q D.Up a.hi b.hi ]
  in
  { lo = List.fold_left D.min (List.hd candidates_lo) (List.tl candidates_lo);
    hi = List.fold_left D.max (List.hd candidates_hi) (List.tl candidates_hi) }

let mul_2exp iv k = { lo = D.mul_2exp iv.lo k; hi = D.mul_2exp iv.hi k }

let widen iv err =
  if D.sign err < 0 then invalid_arg "Ival.widen: negative error";
  { lo = D.sub iv.lo err; hi = D.add iv.hi err }

let mag_hi iv = D.max (D.abs iv.lo) (D.abs iv.hi)
