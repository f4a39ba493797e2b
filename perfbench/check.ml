(* Correctness gate for served results.

   A served double is correct for input pattern [x] when it satisfies the
   rules of [Genlibm.verify]: NaN/infinity inputs and logarithm domain
   errors map to the IEEE results, and every other result rounds
   (round-to-odd, into the widened target) to the oracle's result.

   Checking that rule costs a rational rounding per element, too slow for
   millions of served elements, so each (function, scheme) gets a
   reference table: the kernel's output for every pattern of the input
   format, each checked once against the oracle.  A served element is
   then correct when its bits equal a correct reference value; any other
   value falls back to the full rule. *)

type reference = {
  func : Oracle.func;
  tin : Softfp.fmt;
  tout : Softfp.fmt;
  oracle : (int64, int64) Hashtbl.t;
  expected : int64 array;  (* per pattern: bits of the reference double *)
  ok : bool array;  (* the reference double satisfies the rule *)
}

let value_ok ~func ~tin ~tout ~oracle (x : int64) (v : float) =
  match Softfp.classify tin x with
  | Softfp.NaN -> Float.is_nan v
  | Softfp.Inf ->
      if not (Softfp.sign_bit tin x) then v = Float.infinity
      else if Funcspec.is_exp_family func then v = 0.0 && 1.0 /. v > 0.0
      else Float.is_nan v
  | Softfp.Zero | Softfp.Subnormal | Softfp.Normal ->
      let xq = Softfp.to_rat tin x in
      if not (Oracle.domain_ok func xq) then
        if Rat.sign xq < 0 then Float.is_nan v else v = Float.neg_infinity
      else
        let y =
          match Hashtbl.find_opt oracle x with
          | Some y -> y
          | None -> Oracle.correctly_round func xq ~fmt:tout ~mode:Softfp.RTO
        in
        Int64.equal (Genlibm.round_result tout Softfp.RTO v) y

(* [reference impl ~oracle] evaluates every pattern of the input format
   through the batch kernel on the calling domain and checks each result
   against [oracle] (completed on the fly for inputs it lacks). *)
let reference (impl : Genlibm.t) ~oracle =
  let tin = impl.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let tout = Rlibm.Config.tout impl.Rlibm.Generate.cfg in
  let func = impl.Rlibm.Generate.family.Rlibm.Reduction.func in
  let n = 1 lsl Softfp.width tin in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  for i = 0 to n - 1 do
    Bigarray.Array1.set src i (Int64.of_int i)
  done;
  Genlibm.eval_bits_into impl ~src ~dst ~lo:0 ~hi:n;
  let expected = Array.init n (fun i -> Int64.bits_of_float dst.{i}) in
  let ok =
    Array.init n (fun i -> value_ok ~func ~tin ~tout ~oracle (Int64.of_int i) dst.{i})
  in
  { func; tin; tout; oracle; expected; ok }

let wrong_in_reference r =
  Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 r.ok

(* Number of wrong results among [dst.{0 .. n-1}] for inputs [src]. *)
let count_wrong r ~(src : Genlibm.src_buf) ~(dst : Genlibm.dst_buf) n =
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    let x = Bigarray.Array1.unsafe_get src i in
    let p = Int64.to_int x in
    let v = Bigarray.Array1.unsafe_get dst i in
    if
      not
        ((Int64.equal (Int64.bits_of_float v) (Array.unsafe_get r.expected p)
         && Array.unsafe_get r.ok p)
        || value_ok ~func:r.func ~tin:r.tin ~tout:r.tout ~oracle:r.oracle x v)
    then incr wrong
  done;
  !wrong
