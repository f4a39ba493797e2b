(* The function-spec registry.  See funcspec.mli for the contract.

   The enclosure kernels (series with explicit remainder bounds) and the
   native first-tier kernels that evaluate the same series in fixed
   point live here because they are per-function knowledge: all dyadic
   enclosures are computed with outward-rounded dyadic interval
   arithmetic at a working precision a few dozen bits above the
   requested one; truncation errors of the series are added explicitly
   from conservative closed-form remainder bounds. *)

module B = Bigint
module D = Dyadic

type func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

type family =
  | Exp_family of { log2_base : float }
  | Log_family of { k_scale : float; k_exact : bool }

type preset = { pieces : int; min_degree : int }

type spec = {
  func : func;
  name : string;
  aliases : string list;
  family : family;
  domain_ok : Rat.t -> bool;
  exact_value : Rat.t -> Rat.t option;
  enclosure : Rat.t -> prec:int -> Ival.t;
  fast : int -> int -> (Fixed.t * int) option;
  mini : preset;
  float32 : preset;
}

(* ---------- series kernels ---------- *)

(* atanh(t) for an exact rational 0 <= t <= 1/3 + eps. *)
let atanh_enclosure t ~prec =
  if Rat.is_zero t then Ival.point D.zero
  else begin
    let wp = prec + 24 in
    let tf = Rat.to_float t in
    assert (tf > 0.0 && tf < 0.5);
    (* Smallest N with t^(2N+3) / ((2N+3)(1 - t^2)) < 2^-(prec+8); the
       comparison runs in log2 space so that large [prec] cannot underflow
       double arithmetic. *)
    let lt = Float.log2 tf in
    let slack = Float.log2 (1.0 -. (tf *. tf)) in
    let n_terms =
      let rec go n =
        let l =
          (float_of_int ((2 * n) + 3) *. lt)
          -. Float.log2 (float_of_int ((2 * n) + 3))
          -. slack
        in
        if l < float_of_int (-(prec + 8)) then n else go (n + 1)
      in
      go 0
    in
    let tiv = Ival.of_rat ~prec:wp t in
    let t2iv = Ival.mul ~prec:wp tiv tiv in
    let sum = ref (Ival.point D.zero) in
    let power = ref tiv in
    for i = 0 to n_terms do
      let term = Ival.div ~prec:wp !power (Ival.of_int ((2 * i) + 1)) in
      sum := Ival.add ~prec:wp !sum term;
      power := Ival.mul ~prec:wp !power t2iv
    done;
    (* Remainder of the positive series: bounded by
       t^(2N+3) / ((2N+3) (1 - t^2)) <= hi(power) * 9/8 since t <= 1/3. *)
    let rem =
      let p_hi = Ival.hi !power in
      D.round D.Up ~prec:wp (D.mul p_hi (D.make (B.of_int 9) (-3)))
    in
    Ival.widen !sum rem
  end

(* exp(r) for an interval r with |r| <= 3/4. *)
let exp_reduced riv ~prec =
  let wp = prec + 24 in
  let rmax = Rat.to_float (D.to_rat (Ival.mag_hi riv)) in
  assert (rmax <= 0.75);
  if rmax = 0.0 then Ival.of_int 1
  else begin
    (* Smallest N with rmax^(N+1)/(N+1)! / (1-rmax) < 2^-(prec+8), tracked
       in log2 space to survive large [prec]. *)
    let lr = Float.log2 rmax in
    let slack = Float.log2 (1.0 -. rmax) in
    let lterm = ref 0.0 in
    let n_terms = ref 0 in
    let continue = ref true in
    while !continue do
      incr n_terms;
      lterm := !lterm +. lr -. Float.log2 (float_of_int !n_terms);
      if !lterm -. slack < float_of_int (-(prec + 8)) then continue := false
    done;
    let n_terms = !n_terms in
    (* Horner: acc_k = 1 + r/k * acc_{k+1}. *)
    let acc = ref (Ival.of_int 1) in
    for k = n_terms downto 1 do
      let t = Ival.div ~prec:wp (Ival.mul ~prec:wp riv !acc) (Ival.of_int k) in
      acc := Ival.add ~prec:wp (Ival.of_int 1) t
    done;
    (* The remainder bound as a power of two strictly above the log2-space
       estimate (dyadic exponents never underflow). *)
    let rem = D.pow2 (int_of_float (Float.ceil (!lterm -. slack)) + 2) in
    Ival.widen !acc rem
  end

(* ---------- cached constants ---------- *)

(* Enclosure evaluation runs on worker domains during parallel oracle
   table construction, so the shared constant cache is mutex-protected.
   [compute] runs outside the lock (it may recurse into [cached], and a
   duplicated computation is deterministic and merely wasted work). *)
let const_cache : (string * int, Ival.t) Hashtbl.t = Hashtbl.create 16
let const_cache_mutex = Mutex.create ()

let cached key ~prec compute =
  let lookup () =
    Mutex.lock const_cache_mutex;
    let v = Hashtbl.find_opt const_cache (key, prec) in
    Mutex.unlock const_cache_mutex;
    v
  in
  match lookup () with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.lock const_cache_mutex;
      (* First writer wins so every domain sees one value per key. *)
      let v =
        match Hashtbl.find_opt const_cache (key, prec) with
        | Some v0 -> v0
        | None ->
            Hashtbl.replace const_cache (key, prec) v;
            v
      in
      Mutex.unlock const_cache_mutex;
      v

(* ln 2 = 2 atanh(1/3). *)
let ln2 ~prec =
  cached "ln2" ~prec (fun () ->
      Ival.mul_2exp (atanh_enclosure (Rat.of_ints 1 3) ~prec:(prec + 4)) 1)

(* ln 10 = 3 ln 2 + 2 atanh(1/9)   (10 = 1.25 * 2^3, t = 1/9). *)
let ln10 ~prec =
  cached "ln10" ~prec (fun () ->
      let wp = prec + 8 in
      let a = Ival.mul ~prec:wp (Ival.of_int 3) (ln2 ~prec:wp) in
      let b = Ival.mul_2exp (atanh_enclosure (Rat.of_ints 1 9) ~prec:wp) 1 in
      Ival.add ~prec:wp a b)

(* ---------- native first-tier kernels ----------

   The oracle's first tier evaluates the same series as the enclosures
   above, in Fixed's native fixed point (2^-54, "ulp" below).  Rounding
   error needs no bookkeeping: every Fixed operation rounds outward, so
   it lands in the interval's width.  The one error a kernel adds by
   hand is the truncated series tail, bounded next to each kernel; a
   kernel returns None outside the input range its bounds and the
   Fixed magnitude rules are proven for, and the dyadic Ziv loop takes
   over.  Measured widths (every mini and binary16 input, 200k random
   binary32 patterns): at most 2^-46 for the exponentials before the 2^n
   scale (the |n| ulps of n ln2 dominate; exp2, reduced exactly, stays
   at 2^-51) and 2^-46.6 for the logarithms (2^-48.1 on the mini
   universe) — far inside the 15-bit mini and 26-bit binary32
   targets. *)

(* Literal [floor, ceiling] of each constant at the binary point (a
   one-ulp interval, not a memo). *)
let fixed_ln2 = Fixed.make 0x2c5c85fdf473de 0x2c5c85fdf473df
let fixed_ln10 = Fixed.make 0x935d8dddaaa8ac 0x935d8dddaaa8ad
let fixed_log2e = Fixed.make 0x5c551d94ae0bf8 0x5c551d94ae0bf9
let fixed_log10e = Fixed.make 0x1bcb7b1526e50e 0x1bcb7b1526e50f

(* atanh t = sum_i t^(2i+1)/(2i+1) for t in [0, 1/3 + 1 ulp], terms
   i = 0 .. 15.  Tail: sum_{i>=16} t^(2i+1)/(2i+1) <= t^33 / (33 (1 - t^2))
   <= 3^-33 * 9/264 < 2^-57, under one ulp and positive: [~above:1]. *)
let fast_atanh_terms = 16

let fast_atanh t =
  let t2 = Fixed.mul t t in
  let sum = ref t and power = ref t in
  for i = 1 to fast_atanh_terms - 1 do
    power := Fixed.mul !power t2;
    sum := Fixed.add !sum (Fixed.div_int !power ((2 * i) + 1))
  done;
  Fixed.widen !sum ~below:0 ~above:1

(* e^r = sum_j r^j/j! for |r| <= 1/2, terms j = 0 .. 15 by Horner
   (acc = 1 + r acc / j).  Tail: sum_{j>=16} |r|^j/j! <= 2 |r|^16/16!
   < 2^-59, under one ulp on either side: [~below:1 ~above:1]. *)
let fast_exp_terms = 16

let fast_exp_reduced r =
  let one = Fixed.of_int 1 in
  let acc = ref one in
  for j = fast_exp_terms - 1 downto 1 do
    acc := Fixed.add one (Fixed.div_int (Fixed.mul r !acc) j)
  done;
  Fixed.widen !acc ~below:1 ~above:1

(* e^t = 2^n e^r with r = t - n ln2 and n = round(t log2 e) taken from
   the double [guess]: only a guess, since |r| <= 1/2 is checked, not
   assumed.  Proven for |t| < 128 (Fixed.of_dyadic / Fixed.mul refuse
   more), so |n| <= 185 and n ln2 stays below 2^61. *)
let fast_exp_scaled t ~guess =
  let n = Float.to_int (Float.round guess) in
  let r = Fixed.sub t (Fixed.mul_int fixed_ln2 n) in
  if Fixed.mag r > 1 lsl (Fixed.frac_bits - 1) then None
  else Some (fast_exp_reduced r, n)

(* ln x for x = m 2^e = 2^k (1 + f), f in [0, 1), as (k, 2 atanh t) with
   t = f / (2 + f) = (m - 2^p) / (m + 2^p) in [0, 1/3).  Proven for
   0 < m < 2^53 (Fixed.of_ratio's range) and |k| <= 160 (binary32's
   subnormals reach k = -149): the largest sum, log2's k + s log2 e, then
   stays below 161 * 2^54 < 2^62. *)
let fast_log_parts m e =
  if m <= 0 || m >= 1 lsl 53 then None
  else
    let p = B.int_numbits m - 1 in
    let k = e + p in
    if abs k > 160 then None
    else
      let s = fast_atanh (Fixed.of_ratio (m - (1 lsl p)) (m + (1 lsl p))) in
      Some (k, Fixed.add s s)

let fast_ln m e =
  Option.map
    (fun (k, s) -> Fixed.add (Fixed.mul_int fixed_ln2 k) s)
    (fast_log_parts m e)

(* ---------- shared enclosure bodies ---------- *)

(* exp of an arbitrary (narrow) interval: reduce by n*ln2. *)
let exp_ival xiv ~prec =
  let wp = prec + 24 in
  let mid = Rat.to_float (D.to_rat (Ival.lo xiv)) in
  if Float.abs mid > 1.0e7 then
    invalid_arg "Oracle: exponent argument too large for direct enclosure";
  let n = int_of_float (Float.round (mid /. Float.log 2.0)) in
  let r = Ival.sub ~prec:wp xiv (Ival.mul ~prec:wp (Ival.of_int n) (ln2 ~prec:wp)) in
  Ival.mul_2exp (exp_reduced r ~prec) n

(* ln of an exact positive rational. *)
let log_enclosure x ~prec =
  assert (Rat.sign x > 0);
  let wp = prec + 24 in
  (* x = m * 2^k with m in [1, 2). *)
  let k =
    let c = B.numbits (Rat.num x) - B.numbits (Rat.den x) in
    if Rat.compare x (Rat.mul_pow2 Rat.one c) >= 0 then c else c - 1
  in
  let m = Rat.mul_pow2 x (-k) in
  let t = Rat.div (Rat.sub m Rat.one) (Rat.add m Rat.one) in
  let atan_part = Ival.mul_2exp (atanh_enclosure t ~prec:wp) 1 in
  Ival.add ~prec:wp (Ival.mul ~prec:wp (Ival.of_int k) (ln2 ~prec:wp)) atan_part

(* ---------- exactly representable results ---------- *)

let is_pow2 n = B.sign n > 0 && B.numbits n - 1 = B.trailing_zeros n

(* x = 2^k exactly? *)
let pow2_exponent x =
  let n = Rat.num x and d = Rat.den x in
  if B.sign n <= 0 then None
  else if B.is_one d && is_pow2 n then Some (B.numbits n - 1)
  else if B.is_one n && is_pow2 d then Some (-(B.numbits d - 1))
  else None

(* x = 10^k exactly? *)
let pow10_exponent x =
  if Rat.sign x <= 0 then None
  else begin
    let lf = Float.log10 (Rat.to_float x) in
    if not (Float.is_finite lf) || Float.abs lf > 400.0 then None
    else begin
      let k = int_of_float (Float.round lf) in
      if Rat.equal x (Rat.pow (Rat.of_int 10) k) then Some k else None
    end
  end

(* ---------- domain predicates ---------- *)

let any_rational (_ : Rat.t) = true
let positive x = Rat.sign x > 0

(* ---------- the registry ---------- *)

(* Correctly rounded doubles of log2(e), log2(10), ln 2, log10(2) — the
   family constants every reduction / threshold check shares. *)
let log2e = 1.4426950408889634
let log2_10 = 3.321928094887362
let rn_ln2 = 0.6931471805599453
let log10_2 = 0.30102999566398120

let spec_exp =
  {
    func = Exp;
    name = "exp";
    aliases = [];
    family = Exp_family { log2_base = log2e };
    domain_ok = any_rational;
    (* By Lindemann–Weierstrass, exp x is rational only at x = 0. *)
    exact_value = (fun x -> if Rat.is_zero x then Some Rat.one else None);
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        exp_ival (Ival.of_rat ~prec:wp x) ~prec);
    fast =
      (fun m e ->
        match Fixed.of_dyadic m e with
        | None -> None
        | Some x ->
            fast_exp_scaled x ~guess:(Float.ldexp (float_of_int m) e *. log2e));
    mini = { pieces = 2; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_exp2 =
  {
    func = Exp2;
    name = "exp2";
    aliases = [];
    family = Exp_family { log2_base = 1.0 };
    domain_ok = any_rational;
    (* By Gelfond–Schneider, 2^x is rational only at integer x. *)
    exact_value =
      (fun x ->
        if Rat.is_integer x && B.numbits (Rat.num x) <= 24 then
          Some (Rat.mul_pow2 Rat.one (B.to_int_exn (Rat.num x)))
        else None);
    enclosure =
      (fun x ~prec ->
        (* 2^x = 2^n * exp(f ln2), n = floor x, f = x - n in [0,1). *)
        let wp = prec + 24 in
        let n = B.to_int_exn (Rat.floor x) in
        let frac = Rat.sub x (Rat.of_int n) in
        let r = Ival.mul ~prec:wp (Ival.of_rat ~prec:wp frac) (ln2 ~prec:wp) in
        Ival.mul_2exp (exp_reduced r ~prec) n);
    fast =
      (fun m e ->
        (* 2^x = 2^n e^(f ln2) with n = round x and f = x - n in
           [-1/2, 1/2], split exactly in integers; integer x is exact
           and never reaches the kernel. *)
        if e >= 0 || abs m >= 1 lsl 53 then None
        else
          let n, f =
            if e < -53 then (0, m) (* |x| < 2^53 2^-54 = 1/2 *)
            else
              let n = ((m asr (-e - 1)) + 1) asr 1 in
              (n, m - (n lsl -e))
          in
          Option.map
            (fun f -> (fast_exp_reduced (Fixed.mul f fixed_ln2), n))
            (Fixed.of_dyadic f e));
    mini = { pieces = 1; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_exp10 =
  {
    func = Exp10;
    name = "exp10";
    aliases = [];
    family = Exp_family { log2_base = log2_10 };
    domain_ok = any_rational;
    exact_value =
      (fun x ->
        if Rat.is_integer x && B.numbits (Rat.num x) <= 16 then
          Some (Rat.pow (Rat.of_int 10) (B.to_int_exn (Rat.num x)))
        else None);
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        let t = Ival.mul ~prec:wp (Ival.of_rat ~prec:wp x) (ln10 ~prec:wp) in
        exp_ival t ~prec);
    fast =
      (fun m e ->
        (* |x| < 55 keeps x ln10 below Fixed.mul's 128. *)
        match Fixed.of_dyadic m e with
        | Some x when Fixed.mag x < 55 lsl Fixed.frac_bits ->
            fast_exp_scaled (Fixed.mul x fixed_ln10)
              ~guess:(Float.ldexp (float_of_int m) e *. log2_10)
        | _ -> None);
    mini = { pieces = 2; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_log =
  {
    func = Log;
    name = "log";
    aliases = [ "ln" ];
    family = Log_family { k_scale = rn_ln2; k_exact = false };
    domain_ok = positive;
    (* ln x is rational only at x = 1. *)
    exact_value = (fun x -> if Rat.equal x Rat.one then Some Rat.zero else None);
    enclosure = (fun x ~prec -> log_enclosure x ~prec);
    fast = (fun m e -> Option.map (fun v -> (v, 0)) (fast_ln m e));
    mini = { pieces = 2; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

let spec_log2 =
  {
    func = Log2;
    name = "log2";
    aliases = [];
    family = Log_family { k_scale = 1.0; k_exact = true };
    domain_ok = positive;
    exact_value = (fun x -> Option.map Rat.of_int (pow2_exponent x));
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        Ival.div ~prec:wp (log_enclosure x ~prec:wp) (ln2 ~prec:wp));
    fast =
      (fun m e ->
        Option.map
          (fun (k, s) ->
            (Fixed.add (Fixed.of_int k) (Fixed.mul s fixed_log2e), 0))
          (fast_log_parts m e));
    mini = { pieces = 1; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

let spec_log10 =
  {
    func = Log10;
    name = "log10";
    aliases = [];
    family = Log_family { k_scale = log10_2; k_exact = false };
    domain_ok = positive;
    exact_value = (fun x -> Option.map Rat.of_int (pow10_exponent x));
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        Ival.div ~prec:wp (log_enclosure x ~prec:wp) (ln10 ~prec:wp));
    fast =
      (fun m e ->
        Option.map (fun v -> (Fixed.mul v fixed_log10e, 0)) (fast_ln m e));
    mini = { pieces = 2; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

(* The one dispatch site: every other module resolves per-function
   behaviour through this lookup (or through the [specs] list). *)
let get = function
  | Exp -> spec_exp
  | Exp2 -> spec_exp2
  | Exp10 -> spec_exp10
  | Log -> spec_log
  | Log2 -> spec_log2
  | Log10 -> spec_log10

let all = [ Exp; Exp2; Exp10; Log; Log2; Log10 ]

let name f = (get f).name

let of_name s =
  List.find_opt
    (fun f ->
      let spec = get f in
      String.equal spec.name s || List.exists (String.equal s) spec.aliases)
    all

(* Damerau–Levenshtein distance (with adjacent transposition), for the
   typo suggestion in [resolve]: "lgo2" should point at "log2". *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let best =
        Stdlib.min
          (Stdlib.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost)
      in
      d.(i).(j) <-
        (if
           i > 1 && j > 1
           && a.[i - 1] = b.[j - 2]
           && a.[i - 2] = b.[j - 1]
         then Stdlib.min best (d.(i - 2).(j - 2) + 1)
         else best)
    done
  done;
  d.(la).(lb)

let resolve s =
  match of_name s with
  | Some f -> Ok f
  | None ->
      let names =
        List.concat_map (fun f -> (get f).name :: (get f).aliases) all
      in
      let lower = String.lowercase_ascii s in
      let best =
        List.fold_left
          (fun acc n ->
            let dist = edit_distance lower n in
            match acc with
            | Some (_, d0) when d0 <= dist -> acc
            | _ -> Some (n, dist))
          None names
      in
      (* Offer a suggestion only when it is plausibly a typo: within 2
         edits, and not more edits than half the name. *)
      let suggestion =
        match best with
        | Some (n, d)
          when d <= 2 && 2 * d <= Stdlib.max (String.length n) (String.length s)
          ->
            Some n
        | _ -> None
      in
      Error (Diag.Error.Bad_spec { name = s; suggestion })

let is_exp_family f =
  match (get f).family with Exp_family _ -> true | Log_family _ -> false

let log2_scale f =
  match (get f).family with
  | Exp_family { log2_base } -> Some log2_base
  | Log_family _ -> None
