(* Order statistics over timing samples. *)

let now_ns () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [time_ns f] runs [f ()] once and returns its wall time in ns. *)
let time_ns f =
  let t0 = now_ns () in
  f ();
  elapsed_ns t0

(* Linearly interpolated percentile [p] of the samples [a]. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 50.0

(* Samples beyond percentile [p] of [n]: a tail percentile is only
   meaningful with at least ten. *)
let beyond n p = int_of_float (float_of_int n *. (1.0 -. (p /. 100.0)))

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let geomean l = exp (mean (List.map log l))

(* [median_ns ~reps f] is the median wall time in ns over [reps] runs of
   [f ()], after one untimed warm-up run. *)
let median_ns ~reps f =
  f ();
  median (Array.init reps (fun _ -> time_ns f))
