(* Interval-based correctly rounded oracle (MPFR substitute).

   Per-function knowledge — domain predicates, exact-value rules, the
   rigorous enclosure kernels — lives in the Funcspec registry; this
   module owns only the function-agnostic machinery: the native
   fixed-point first tier, the dyadic Ziv loop behind it that raises the
   working precision until the enclosure rounds unambiguously, the
   overflow/underflow range shortcuts, and the rounder memo used by the
   multi-representation verification harness. *)

module B = Bigint

type func = Funcspec.func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

let all = Funcspec.all
let name = Funcspec.name
let of_name = Funcspec.of_name
let domain_ok f x = (Funcspec.get f).Funcspec.domain_ok x
let exact_value f x = (Funcspec.get f).Funcspec.exact_value x

let enclosure f x ~prec =
  if not (domain_ok f x) then invalid_arg "Oracle.enclosure: domain";
  (Funcspec.get f).Funcspec.enclosure x ~prec

let ln2 = Funcspec.ln2
let ln10 = Funcspec.ln10

(* ---------- correctly rounded results ---------- *)

(* Rounding of a positive value known to lie strictly between 0 and the
   smallest subnormal / strictly above the largest finite value. *)
let tiny_positive fmt (mode : Softfp.mode) =
  match mode with
  | RNE | RNA | RTZ | RTD -> Softfp.zero_bits fmt
  | RTU | RTO -> Softfp.min_subnormal_bits fmt ~neg:false

let huge_positive fmt (mode : Softfp.mode) =
  match mode with
  | RNE | RNA | RTU -> Softfp.inf_bits fmt ~neg:false
  | RTZ | RTD | RTO -> Softfp.max_finite_bits fmt ~neg:false

let ziv_precisions = [ 80; 128; 192; 288; 432; 648; 1000; 1600; 2600; 4096 ]

type tier = Range_shortcut | Exact | Fast | Ziv of int

let tier_name = function
  | Range_shortcut -> "range"
  | Exact -> "exact"
  | Fast -> "fast"
  | Ziv p -> Printf.sprintf "ziv%d" p

(* The input as m·2^e with |m| < 2^53, when it is that small a dyadic —
   every binary16/binary32 pattern is — the first tier's input form. *)
let small_dyadic q =
  let n = B.abs (Rat.num q) and d = Rat.den q in
  let signed m = if Rat.sign q < 0 then -m else m in
  if B.is_zero n then Some (0, 0)
  else if B.is_one d then
    let tz = B.trailing_zeros n in
    if B.numbits n - tz > 53 then None
    else Some (signed (B.to_int_exn (B.shift_right n tz)), tz)
  else if B.numbits d - 1 = B.trailing_zeros d && B.numbits n <= 53 then
    Some (signed (B.to_int_exn n), -(B.numbits d - 1))
  else None

(* The first tier: the registry's native fixed-point kernel. *)
let fast_kernel f x =
  match small_dyadic x with
  | None -> None
  | Some (m, e) -> (Funcspec.get f).Funcspec.fast m e

let fast_enclosure f x =
  if not (domain_ok f x) then invalid_arg "Oracle.fast_enclosure: domain";
  Option.map (fun (iv, scale) -> Fixed.to_rats iv ~scale) (fast_kernel f x)

(* A rounder memoizes the enclosures of f(x) — the fast one, computed
   up front, then the precision-indexed dyadic ones — so the same input
   can be rounded into many formats and modes (the verification
   harness's access pattern) while paying for each series evaluation
   only once.  The exact value is computed on first need: for 10^x at a
   large integer x it is a huge rational that the range shortcut makes
   unnecessary.  A rounder is made per call and never shared across
   domains, so the plain mutable fields need no lock. *)
type rounder = {
  r_func : func;
  r_x : Rat.t;
  mutable r_exact : Rat.t option option; (* None until first needed *)
  r_fast : (Fixed.t * int) option;
  mutable r_enclosures : (int * Ival.t) list; (* most precise first *)
}

let make_rounder f x =
  if not (domain_ok f x) then invalid_arg "Oracle.make_rounder: domain";
  { r_func = f; r_x = x; r_exact = None; r_fast = fast_kernel f x;
    r_enclosures = [] }

let rounder_exact r =
  match r.r_exact with
  | Some e -> e
  | None ->
      let e = exact_value r.r_func r.r_x in
      r.r_exact <- Some e;
      e

let rounder_enclosure r prec =
  match List.find_opt (fun (p, _) -> p >= prec) (List.rev r.r_enclosures) with
  | Some (_, iv) -> iv
  | None ->
      let iv = enclosure r.r_func r.r_x ~prec in
      r.r_enclosures <- (prec, iv) :: r.r_enclosures;
      iv

(* Range shortcut for the exponentials: avoid materializing 2^(huge).
   The threshold scale is the family's log2_base from the registry. *)
let range_shortcut f x ~fmt ~mode =
  match Funcspec.log2_scale f with
  | None -> None
  | Some scale ->
      let l2 = Rat.to_float x *. scale in
      if l2 > float_of_int (Softfp.emax fmt + 2) then
        Some (huge_positive fmt mode)
      else if l2 < float_of_int (Softfp.emin fmt - fmt.Softfp.prec - 4) then
        Some (tiny_positive fmt mode)
      else None

(* A fixed-point endpoint v·2^(scale - frac_bits), rounded in native
   integers. *)
let round_fixed fmt mode v scale =
  Softfp.of_dyadic fmt mode ~neg:(v < 0) (abs v) (scale - Fixed.frac_bits)

(* The first tier decides when both endpoints round to the same bits. *)
let fast_bits r ~fmt ~mode =
  match r.r_fast with
  | None -> None
  | Some (iv, scale) ->
      let bl = round_fixed fmt mode iv.Fixed.lo scale in
      if Int64.equal bl (round_fixed fmt mode iv.Fixed.hi scale) then Some bl
      else None

let rec ziv r ~fmt ~mode = function
  | [] -> failwith "Oracle: Ziv loop exhausted"
  | prec :: rest ->
      let lo, hi = Ival.to_rats (rounder_enclosure r prec) in
      let bl = Softfp.of_rat fmt mode lo in
      if Int64.equal bl (Softfp.of_rat fmt mode hi) then (bl, Ziv prec)
      else ziv r ~fmt ~mode rest

let decide r ~fmt ~mode =
  match range_shortcut r.r_func r.r_x ~fmt ~mode with
  | Some b -> (b, Range_shortcut)
  | None -> (
      match rounder_exact r with
      | Some y -> (Softfp.of_rat fmt mode y, Exact)
      | None -> (
          match fast_bits r ~fmt ~mode with
          | Some b -> (b, Fast)
          | None -> ziv r ~fmt ~mode ziv_precisions))

let round_with r ~fmt ~mode = fst (decide r ~fmt ~mode)
let correctly_round f x ~fmt ~mode = round_with (make_rounder f x) ~fmt ~mode

let float64 f x =
  if not (Float.is_finite x) then invalid_arg "Oracle.float64: not finite";
  let q = Rat.of_float x in
  if not (domain_ok f q) then invalid_arg "Oracle.float64: domain";
  match exact_value f q with
  | Some y -> Rat.to_float y
  | None ->
      (* Shortcuts mirroring [correctly_round] for binary64. *)
      let shortcut =
        match Funcspec.log2_scale f with
        | None -> None
        | Some scale ->
            let l2 = x *. scale in
            if l2 > 1026.0 then Some Float.infinity
            else if l2 < -1080.0 then Some 0.0
            else None
      in
      (match shortcut with
      | Some v -> v
      | None ->
          let rec ziv = function
            | [] -> failwith "Oracle.float64: Ziv loop exhausted"
            | prec :: rest ->
                let iv = enclosure f q ~prec in
                let lo, hi = Ival.to_rats iv in
                let fl = Rat.to_float lo and fh = Rat.to_float hi in
                if fl = fh then fl else ziv rest
          in
          ziv ziv_precisions)
