(* Rounding intervals for round-to-odd targets (Section 2 of the paper).
   See intervals.mli for the construction. *)

type t = { lo : float; hi : float }

let contains iv v = iv.lo <= v && v <= iv.hi

let is_degenerate iv = iv.lo = iv.hi

(* [of_round_to_odd tout y] — [y] must be finite in [tout]. *)
let of_round_to_odd tout y =
  if not (Softfp.is_finite tout y) then
    invalid_arg "Intervals.of_round_to_odd: not finite";
  if Softfp.frac_odd tout y then
    (* Strictly inside the open interval between the even neighbours, as
       doubles; an infinite neighbour leaves -max_float / max_float. *)
    {
      lo = Float.succ (Softfp.to_float tout (Softfp.pred tout y));
      hi = Float.pred (Softfp.to_float tout (Softfp.succ tout y));
    }
  else
    let v = Softfp.to_float tout y in
    { lo = v; hi = v }
