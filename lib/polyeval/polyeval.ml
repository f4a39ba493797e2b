(* The four evaluation configurations of the paper plus Horner+FMA.

   Each scheme is defined twice on purpose: once as an Expr DAG (the
   reference semantics, the cost model and the code generator's input)
   and once as the degree-specialized C bodies behind [eval_into], the
   only runnable form — generation validates with it and serving runs
   it.  The C bodies stop at degree 6, where generation stops
   (Config.max_degree) and where the paper's Knuth adaptation does, so
   [compile] refuses anything longer; the DAG covers every degree.  The
   test suite checks bit-for-bit agreement between the two on random
   inputs, so the specializations cannot drift. *)

type scheme = Horner | HornerFma | Knuth | Estrin | EstrinFma

let paper_schemes = [ Horner; Knuth; Estrin; EstrinFma ]
let all_schemes = [ Horner; HornerFma; Knuth; Estrin; EstrinFma ]

let scheme_name = function
  | Horner -> "horner"
  | HornerFma -> "horner-fma"
  | Knuth -> "knuth"
  | Estrin -> "estrin"
  | EstrinFma -> "estrin-fma"

let scheme_of_name = function
  | "horner" -> Some Horner
  | "horner-fma" -> Some HornerFma
  | "knuth" -> Some Knuth
  | "estrin" -> Some Estrin
  | "estrin-fma" -> Some EstrinFma
  | _ -> None

(* ---------- DAG builders ---------- *)

let horner_expr ~use_fma degree =
  let open Expr in
  let rec build i acc =
    if i < 0 then acc
    else
      build (i - 1)
        (if use_fma then Fma (acc, Var, Const i)
         else Add (Const i, Mul (acc, Var)))
  in
  if degree = 0 then Const 0 else build (degree - 1) (Const degree)

let estrin_expr ~use_fma degree =
  let open Expr in
  let pair lo hi x = if use_fma then Fma (hi, x, lo) else Add (lo, Mul (hi, x)) in
  let rec go (v : Expr.t array) x =
    let n = Array.length v in
    if n = 1 then v.(0)
    else begin
      let half = (n + 1) / 2 in
      let w =
        Array.init half (fun i ->
            if (2 * i) + 1 < n then pair v.(2 * i) v.((2 * i) + 1) x
            else v.(2 * i))
      in
      go w (Mul (x, x))
    end
  in
  go (Array.init (degree + 1) (fun i -> Const i)) Var

let knuth_expr degree =
  let open Expr in
  match degree with
  | 4 ->
      let y = Add (Mul (Add (Var, Const 0), Var), Const 1) in
      Mul (Add (Mul (Add (Add (y, Var), Const 2), y), Const 3), Const 4)
  | 5 ->
      let t = Add (Var, Const 0) in
      let y = Mul (t, t) in
      let inner = Add (Mul (Add (y, Const 1), y), Const 2) in
      Mul (Add (Mul (inner, Add (Var, Const 3)), Const 4), Const 5)
  | 6 ->
      let z = Add (Mul (Add (Var, Const 0), Var), Const 1) in
      let w = Add (Mul (Add (Var, Const 2), z), Const 3) in
      Mul (Add (Mul (Add (Add (w, z), Const 4), w), Const 5), Const 6)
  | _ -> invalid_arg "Polyeval.scheme_expr: Knuth needs degree 4, 5 or 6"

let scheme_expr scheme ~degree =
  match scheme with
  | Horner -> horner_expr ~use_fma:false degree
  | HornerFma -> horner_expr ~use_fma:true degree
  | Estrin -> estrin_expr ~use_fma:false degree
  | EstrinFma -> estrin_expr ~use_fma:true degree
  | Knuth -> knuth_expr degree

(* ---------- batch evaluator ---------- *)

(* Lengths 0..7 run in C (polyeval_stubs.c): one straight-line body per
   (scheme, length) that performs the DAG's operations above in the
   DAG's order, so every result is bit-for-bit [Expr.eval_float] of the
   scheme's DAG (enforced by the test suite), with [fma] a hardware
   instruction where the CPU has one.  The stub neither allocates nor
   raises; longer data is rejected before it is called.  The C reads
   the scheme as its constructor index (polyeval.mli, [compiled]). *)

external sweep :
  scheme ->
  float array ->
  floatarray ->
  floatarray ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "rlibm_poly_sweep_byte" "rlibm_poly_sweep"
[@@noalloc]

let max_length = 7

let eval_into scheme (data : float array) ~(src : floatarray)
    ~(dst : floatarray) ~lo ~hi =
  let n = Array.length data in
  match scheme with
  | Knuth when n < 5 || n > max_length ->
      invalid_arg "Polyeval.eval_into: Knuth degree must be 4, 5 or 6"
  | _ when n > max_length ->
      invalid_arg "Polyeval.eval_into: degree must be at most 6"
  | _ -> sweep scheme data src dst lo hi

(* ---------- Knuth coefficient adaptation ---------- *)

let adapt_knuth (u : float array) =
  let d = Array.length u - 1 in
  let finite a = Array.for_all Float.is_finite a in
  match d with
  | 4 when u.(4) <> 0.0 ->
      (* Equation (4). *)
      let a0 = 0.5 *. ((u.(3) /. u.(4)) -. 1.0) in
      let beta = (u.(2) /. u.(4)) -. (a0 *. (a0 +. 1.0)) in
      let a1 = (u.(1) /. u.(4)) -. (a0 *. beta) in
      let a2 = beta -. (2.0 *. a1) in
      let a3 = (u.(0) /. u.(4)) -. (a1 *. (a1 +. a2)) in
      let a = [| a0; a1; a2; a3; u.(4) |] in
      if finite a then Some a else None
  | 5 when u.(5) <> 0.0 ->
      (* Equations (6)-(7). *)
      let p = u.(3) /. u.(5) and q = u.(4) /. u.(5) in
      let a0 =
        Cubic.real_root ~c3:(-40.0) ~c2:(24.0 *. q)
          ~c1:(-2.0 *. (p +. (2.0 *. q *. q)))
          ~c0:((p *. q) -. (u.(2) /. u.(5)))
      in
      let a1 = p -. (4.0 *. q *. a0) +. (10.0 *. a0 *. a0) in
      let a3 = q -. (4.0 *. a0) in
      let a2 =
        (u.(1) /. u.(5))
        -. (a0 *. a0 *. (a1 +. (a0 *. a0)))
        -. (2.0 *. a0 *. a3 *. (a1 +. (2.0 *. a0 *. a0)))
      in
      let a4 =
        (u.(0) /. u.(5)) -. (a2 *. a3) -. (a0 *. a0 *. a3 *. (a1 +. (a0 *. a0)))
      in
      let a = [| a0; a1; a2; a3; a4; u.(5) |] in
      if finite a then Some a else None
  | 6 when u.(6) <> 0.0 ->
      (* Equations (9)-(12), after normalizing the leading coefficient. *)
      let v = Array.map (fun c -> c /. u.(6)) u in
      let b1 = 0.5 *. (v.(5) -. 1.0) in
      let b2 = v.(4) -. (b1 *. (b1 +. 1.0)) in
      let b3 = v.(3) -. (b1 *. b2) in
      let b4 = b1 -. b2 in
      let b5 = v.(2) -. (b1 *. b3) in
      let b6 =
        Cubic.real_root ~c3:2.0
          ~c2:((2.0 *. b4) -. b2 +. 1.0)
          ~c1:((2.0 *. b5) -. (b2 *. b4) -. b3)
          ~c0:(v.(1) -. (b2 *. b5))
      in
      let b7 = (b6 *. b6) +. (b4 *. b6) +. b5 in
      let b8 = b3 -. b6 -. b7 in
      let a0 = b2 -. (2.0 *. b6) in
      let a2 = b1 -. a0 in
      let a1 = b6 -. (a0 *. a2) in
      let a3 = b7 -. (a1 *. a2) in
      let a4 = b8 -. b7 -. a1 in
      let a5 = v.(0) -. (b7 *. b8) in
      let a = [| a0; a1; a2; a3; a4; a5; u.(6) |] in
      if finite a then Some a else None
  | _ -> None

(* ---------- compilation ---------- *)

type compiled = {
  scheme : scheme;
  degree : int;
  data : float array;
  expr : Expr.t;
}

let compile scheme coeffs =
  (* Snapshot the coefficients: the generator's dither loop reuses its
     candidate buffer across trials, so [data] must not alias a
     caller-mutated array. *)
  let degree = Array.length coeffs - 1 in
  if degree < 0 || degree >= max_length then None
  else
    Option.map
      (fun data -> { scheme; degree; data; expr = scheme_expr scheme ~degree })
      (match scheme with
      | Knuth -> adapt_knuth coeffs
      | Horner | HornerFma | Estrin | EstrinFma -> Some (Array.copy coeffs))

(* Rebuild a compiled evaluator from a previously compiled [data] array
   (e.g. one loaded from the persistent artifact store).  For the dense
   schemes this is just [compile]; for Knuth the array already holds the
   *adapted* constants, so re-running the adaptation would be wrong — the
   constants are installed directly, bit-identical to the original
   compilation. *)
let of_data scheme data =
  match scheme with
  | Horner | HornerFma | Estrin | EstrinFma -> compile scheme data
  | Knuth ->
      let degree = Array.length data - 1 in
      if degree < 4 || degree > 6 || not (Array.for_all Float.is_finite data)
      then None
      else Some { scheme; degree; data = Array.copy data; expr = knuth_expr degree }

let cost c = Expr.cost c.expr

let eval_exact c x = Expr.eval_rat c.expr ~data:c.data x
