(* Seeded microbenchmarks of the layers under the generator's LP
   (Bigint, Rat) and of the polynomial layer at matched degree. *)

(* A random [bits]-bit odd integer (top bit set). *)
let random_bigint st bits =
  let rec fill acc remaining =
    if remaining <= 0 then acc
    else
      let k = min 30 remaining in
      let chunk = Random.State.bits st land ((1 lsl k) - 1) in
      fill (Bigint.add (Bigint.shift_left acc k) (Bigint.of_int chunk)) (remaining - k)
  in
  let x = Bigint.add (Bigint.pow2 (bits - 1)) (fill Bigint.zero (bits - 1)) in
  if Bigint.is_even x then Bigint.succ x else x

(* Median microseconds per call of [op i] over operand pairs [i]: each
   sample times [pairs] calls; samples run for about 0.15 s. *)
let us_per_op ~pairs op =
  let sample () =
    Stats.time_ns (fun () ->
        for i = 0 to pairs - 1 do
          ignore (Sys.opaque_identity (op i))
        done)
  in
  ignore (sample ());
  let t0 = Stats.now_ns () in
  let samples = ref [] in
  while
    List.length !samples < 5 || Stats.elapsed_ns t0 < 0.15e9
  do
    samples := sample () :: !samples
  done;
  Stats.median (Array.of_list !samples) /. float_of_int pairs /. 1e3

let pairs = 8

let bigint_ops ~seed =
  let st = Random.State.make [| seed; 0xb16 |] in
  List.concat_map
    (fun bits ->
      let a = Array.init pairs (fun _ -> random_bigint st bits) in
      let b = Array.init pairs (fun _ -> random_bigint st bits) in
      [
        ( Printf.sprintf "bigint.gcd_us.%d" bits,
          Trace.span "bigint.gcd" (fun () ->
              us_per_op ~pairs (fun i -> Bigint.gcd a.(i) b.(i))) );
        ( Printf.sprintf "bigint.mul_us.%d" bits,
          Trace.span "bigint.mul" (fun () ->
              us_per_op ~pairs (fun i -> Bigint.mul a.(i) b.(i))) );
      ])
    [ 64; 256; 512; 1024 ]

(* Rationals whose numerator and denominator both have [bits] bits: the
   size range of the simplex tableau entries (400-650 bits). *)
let rat_ops ~seed =
  let st = Random.State.make [| seed; 0x7a7 |] in
  List.concat_map
    (fun bits ->
      let q () = Rat.make (random_bigint st bits) (random_bigint st bits) in
      let a = Array.init pairs (fun _ -> q ()) in
      let b = Array.init pairs (fun _ -> q ()) in
      [
        ( Printf.sprintf "rat.add_us.%d" bits,
          Trace.span "rat.add" (fun () ->
              us_per_op ~pairs (fun i -> Rat.add a.(i) b.(i))) );
        ( Printf.sprintf "rat.mul_us.%d" bits,
          Trace.span "rat.mul" (fun () ->
              us_per_op ~pairs (fun i -> Rat.mul a.(i) b.(i))) );
      ])
    [ 64; 256; 512 ]

(* Table 2 at the polynomial layer: every scheme evaluates the same dense
   coefficients (exp-like, seeded perturbation, accepted by Knuth's
   adaptation) over the same 2^16 inputs in [0, 1), so degree and inputs
   are matched across schemes. *)
let matched_coeffs st degree =
  let rec attempt k =
    let c =
      Array.init (degree + 1) (fun i ->
          let fact = ref 1.0 in
          for j = 2 to i do
            fact := !fact *. float_of_int j
          done;
          (1.0 +. (0.01 *. (Random.State.float st 2.0 -. 1.0))) /. !fact)
    in
    if
      List.for_all (fun s -> Polyeval.compile s c <> None) Polyeval.all_schemes
      || k = 0
    then c
    else attempt (k - 1)
  in
  attempt 100

let matched_polyeval ~seed =
  let st = Random.State.make [| seed; 0x901 |] in
  let n = 1 lsl 16 in
  let src = Float.Array.init n (fun _ -> Random.State.float st 1.0) in
  let dst = Float.Array.create n in
  let cells =
    List.concat_map
      (fun degree ->
        let c = matched_coeffs st degree in
        List.filter_map
          (fun scheme ->
            Option.map
              (fun (cp : Polyeval.compiled) -> (scheme, degree, cp.Polyeval.data))
              (Polyeval.compile scheme c))
          Polyeval.all_schemes)
      [ 4; 5; 6 ]
  in
  (* Interleave the cells across repetitions so a slow phase of the
     machine hits every scheme alike. *)
  let reps = 21 in
  let samples = List.map (fun _ -> Array.make reps 0.0) cells in
  List.iter
    (fun (scheme, _, data) -> Polyeval.eval_into scheme data ~src ~dst ~lo:0 ~hi:n)
    cells;
  for r = 0 to reps - 1 do
    List.iter2
      (fun (scheme, _, data) a ->
        a.(r) <-
          Stats.time_ns (fun () ->
              Polyeval.eval_into scheme data ~src ~dst ~lo:0 ~hi:n))
      cells samples
  done;
  List.map2
    (fun (scheme, degree, _) a ->
      ( Printf.sprintf "polyeval.matched_ns.%s.d%d"
          (Polyeval.scheme_name scheme)
          degree,
        Stats.median a /. float_of_int n ))
    cells samples
