(* Emission of generated functions as standalone source, mirroring the
   artifact's generated C implementations.

   The polynomial body is printed from the scheme's Expr DAG in SSA style:
   every interior node becomes a named temporary, shared nodes are emitted
   once, so the emitted source performs the exact operation sequence that
   the generation loop validated.  All constants print as hexadecimal
   floats, which round-trip exactly in both C99 and OCaml. *)

type lang = C | Ml

let float_lit lang v =
  if Float.is_nan v then match lang with C -> "NAN" | Ml -> "Float.nan"
  else if v = Float.infinity then
    match lang with C -> "INFINITY" | Ml -> "Float.infinity"
  else if v = Float.neg_infinity then
    match lang with C -> "-INFINITY" | Ml -> "Float.neg_infinity"
  else
    match lang with
    | C -> Printf.sprintf "%h" v
    | Ml ->
        (* OCaml accepts hex float literals directly. *)
        Printf.sprintf "%h" v

(* An argument of an OCaml function application: a negative literal
   needs parentheses, or [f -0x1p-2 r] parses as a subtraction. *)
let ml_arg a = if String.length a > 0 && a.[0] = '-' then "(" ^ a ^ ")" else a

(* ---------- polynomial body from the Expr DAG ---------- *)

let emit_poly lang buf (piece : Polyeval.compiled) ~arg ~indent =
  let counter = ref 0 in
  let named : (Obj.t * string) list ref = ref [] in
  let fresh () =
    let n = Printf.sprintf "t%d" !counter in
    incr counter;
    n
  in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (indent ^ s ^ "\n")) fmt in
  let const i = float_lit lang piece.Polyeval.data.(i) in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Var -> arg
    | Expr.Const i -> const i
    | Expr.Add _ | Expr.Mul _ | Expr.Fma _ -> (
        let key = Obj.repr e in
        match List.assq_opt key !named with
        | Some n -> n
        | None ->
            let rhs =
              match e with
              | Expr.Add (a, b) ->
                  let a = go a and b = go b in
                  (match lang with
                  | C -> Printf.sprintf "%s + %s" a b
                  | Ml -> Printf.sprintf "%s +. %s" a b)
              | Expr.Mul (a, b) ->
                  let a = go a and b = go b in
                  (match lang with
                  | C -> Printf.sprintf "%s * %s" a b
                  | Ml -> Printf.sprintf "%s *. %s" a b)
              | Expr.Fma (a, b, c) ->
                  let a = go a and b = go b and c = go c in
                  (match lang with
                  | C -> Printf.sprintf "fma(%s, %s, %s)" a b c
                  | Ml ->
                      Printf.sprintf "Float.fma %s %s %s" (ml_arg a) (ml_arg b)
                        (ml_arg c))
              | Expr.Var | Expr.Const _ -> assert false
            in
            let n = fresh () in
            (match lang with
            | C -> line "double %s = %s;" n rhs
            | Ml -> line "let %s = %s in" n rhs);
            named := (key, n) :: !named;
            n)
  in
  go piece.Polyeval.expr

(* ---------- special-input table ---------- *)

let specials_list (g : Rlibm.Generate.generated) =
  let tin = g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  Array.map2
    (fun bits v -> (Softfp.to_float tin (Int64.of_int bits), v))
    g.Rlibm.Generate.spec_keys g.spec_vals
  |> Array.to_list |> List.sort compare

(* ---------- shared pieces of the wrappers ---------- *)

(* Binds [p] to the polynomial value at [r]: one body, or a dispatch
   over every piece on the clamped index [(int)(r * f1 * ... * pieces)],
   with [scale] the factors [f1 ...] that map the reduced domain onto
   [0, 1). *)
let emit_pieces lang buf (pieces : Polyeval.compiled array) ~indent ~scale =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = Array.length pieces in
  let body piece ~indent = emit_poly lang buf piece ~arg:"r" ~indent in
  let select =
    let factor f =
      match lang with C -> Printf.sprintf " * %d.0" f | Ml -> Printf.sprintf " *. %d." f
    in
    let product = "r" ^ String.concat "" (List.map factor (scale @ [ n ])) in
    match lang with C -> "(int)(" ^ product ^ ")" | Ml -> "int_of_float (" ^ product ^ ")"
  in
  match lang with
  | C when n > 1 ->
      pr "%sint piece = %s;\n" indent select;
      pr "%sif (piece >= %d) piece = %d;\n" indent n (n - 1);
      pr "%sdouble p;\n" indent;
      Array.iteri
        (fun i piece ->
          pr "%s%s (piece == %d) {\n" indent (if i = 0 then "if" else "else if") i;
          let res = body piece ~indent:(indent ^ "  ") in
          pr "%s  p = %s;\n%s}\n" indent res indent)
        pieces;
      pr "%selse p = 0.0; /* unreachable */\n" indent
  | C ->
      let res = body pieces.(0) ~indent in
      pr "%sdouble p = %s;\n" indent res
  | Ml when n > 1 ->
      pr "%slet piece = Stdlib.min %d (%s) in\n" indent (n - 1) select;
      pr "%slet p =\n" indent;
      Array.iteri
        (fun i piece ->
          let last = i = n - 1 in
          if last then pr "%s  begin\n" indent
          else pr "%s  if piece = %d then begin\n" indent i;
          let res = body piece ~indent:(indent ^ "    ") in
          pr "%s    %s\n%s  end%s\n" indent res indent (if last then "" else " else"))
        pieces;
      pr "%sin\n" indent
  | Ml ->
      pr "%slet p =\n" indent;
      let res = body pieces.(0) ~indent:(indent ^ "  ") in
      pr "%s  %s\n%sin\n" indent res indent

(* ---------- C ---------- *)

let to_c (g : Rlibm.Generate.generated) ~name =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let lit = float_lit C in
  let specials = specials_list g in
  let pieces = g.Rlibm.Generate.pieces in
  let kernel = g.Rlibm.Generate.family.Rlibm.Reduction.kernel in
  pr "/* %s: correctly rounded %s generated by rlibm-fastpoly.\n"
    name
    (Oracle.name g.Rlibm.Generate.family.Rlibm.Reduction.func);
  pr "   Scheme: %s.  The double result rounds correctly into every\n"
    (Polyeval.scheme_name g.Rlibm.Generate.scheme);
  pr "   representation with %d..%d total bits under all five IEEE\n"
    (g.Rlibm.Generate.cfg.Rlibm.Config.tin.Softfp.ebits + 2)
    (Softfp.width g.Rlibm.Generate.cfg.Rlibm.Config.tin);
  pr "   rounding modes (round-to-odd construction). */\n";
  pr "#include <math.h>\n#include <stdint.h>\n\n";
  if specials <> [] then begin
    pr "static const double %s_special[][2] = {\n" name;
    List.iter (fun (x, v) -> pr "  {%s, %s},\n" (lit x) (lit v)) specials;
    pr "};\n\n"
  end;
  (match kernel with
  | Rlibm.Reduction.Log_kernel { lk_table; _ } ->
      pr "static const double %s_tbl[%d] = {\n" name (Array.length lk_table);
      Array.iter (fun v -> pr "  %s,\n" (lit v)) lk_table;
      pr "};\n\n"
  | Rlibm.Reduction.Exp_kernel _ -> ());
  pr "double %s(double x) {\n" name;
  (* non-finite and special handling *)
  pr "  if (isnan(x)) return x;\n";
  (match kernel with
  | Rlibm.Reduction.Exp_kernel _ -> pr "  if (isinf(x)) return x > 0 ? x : 0.0;\n"
  | Rlibm.Reduction.Log_kernel _ ->
      pr "  if (x == 0.0) return -INFINITY;\n";
      (* The kernel's own NaN bits (Float.nan's payload, which C's NAN
         lacks), so the C is bit-identical to it. *)
      pr "  static const union { uint64_t u; double d; } nan_bits = { 0x%LxULL };\n\
         \  if (x < 0.0) return nan_bits.d;\n" (Int64.bits_of_float Float.nan);
      pr "  if (isinf(x)) return x;\n");
  if specials <> [] then begin
    pr "  for (unsigned i = 0; i < sizeof %s_special / sizeof %s_special[0]; i++)\n"
      name name;
    pr "    if (x == %s_special[i][0]) return %s_special[i][1];\n" name name
  end;
  (match kernel with
  | Rlibm.Reduction.Exp_kernel k ->
      let v = k.Rlibm.Reduction.ek_settled in
      pr "  double t = x * %s;\n" (lit k.ek_scale);
      pr "  if (t > %s) return %s;\n" (lit k.ek_hi_cut) (lit v.(1));
      pr "  if (t < %s) return %s;\n" (lit k.ek_lo_cut) (lit v.(2));
      pr "  if (x != 0.0 && fabs(t) < %s) return x > 0.0 ? %s : %s;\n"
        (lit k.ek_near_cut) (lit v.(4)) (lit v.(3));
      pr "  double n = floor(t);\n";
      pr "  double r = t - n;\n";
      emit_pieces C buf pieces ~indent:"  " ~scale:[];
      pr "  return ldexp(p, (int) n);\n"
  | Rlibm.Reduction.Log_kernel k ->
      let tsize = Array.length k.Rlibm.Reduction.lk_table in
      pr "  int e2;\n";
      pr "  double m = 2.0 * frexp(x, &e2);\n";
      pr "  int k = e2 - 1;\n";
      pr "  int j = (int)((m - 1.0) * %d.0);\n" tsize;
      pr "  double F = 1.0 + (double) j / %d.0;\n" tsize;
      pr "  double r = (m - F) / F;\n";
      if k.lk_exact then pr "  double c = (double) k + %s_tbl[j];\n" name
      else pr "  double c = fma((double) k, %s, %s_tbl[j]);\n" (lit k.lk_scale) name;
      emit_pieces C buf pieces ~indent:"  " ~scale:[ tsize ];
      pr "  return c + p;\n");
  pr "}\n";
  Buffer.contents buf

(* ---------- OCaml ---------- *)

let to_ocaml (g : Rlibm.Generate.generated) ~name =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let lit = float_lit Ml in
  let specials = specials_list g in
  let pieces = g.Rlibm.Generate.pieces in
  let kernel = g.Rlibm.Generate.family.Rlibm.Reduction.kernel in
  pr "(* %s: correctly rounded %s (%s scheme), generated by rlibm-fastpoly *)\n"
    name
    (Oracle.name g.Rlibm.Generate.family.Rlibm.Reduction.func)
    (Polyeval.scheme_name g.Rlibm.Generate.scheme);
  if specials <> [] then begin
    pr "let %s_special = [|\n" name;
    List.iter (fun (x, v) -> pr "  (%s, %s);\n" (lit x) (lit v)) specials;
    pr "|]\n\n"
  end;
  (match kernel with
  | Rlibm.Reduction.Log_kernel { lk_table; _ } ->
      pr "let %s_tbl = [|\n" name;
      Array.iter (fun v -> pr "  %s;\n" (lit v)) lk_table;
      pr "|]\n\n"
  | Rlibm.Reduction.Exp_kernel _ -> ());
  pr "let %s (x : float) : float =\n" name;
  pr "  if Float.is_nan x then x\n";
  (match kernel with
  | Rlibm.Reduction.Exp_kernel _ ->
      pr "  else if x = Float.infinity then x\n  else if x = Float.neg_infinity then 0.0\n"
  | Rlibm.Reduction.Log_kernel _ ->
      pr "  else if x = 0.0 then Float.neg_infinity\n";
      pr "  else if x < 0.0 then Float.nan\n";
      pr "  else if x = Float.infinity then x\n");
  if specials <> [] then begin
    pr "  else begin match Array.find_opt (fun (k, _) -> k = x) %s_special with\n"
      name;
    pr "  | Some (_, v) -> v\n  | None ->\n"
  end
  else pr "  else begin\n";
  (match kernel with
  | Rlibm.Reduction.Exp_kernel k ->
      let v = k.Rlibm.Reduction.ek_settled in
      pr "  let t = x *. %s in\n" (lit k.ek_scale);
      pr "  if t > %s then %s\n" (lit k.ek_hi_cut) (lit v.(1));
      pr "  else if t < %s then %s\n" (lit k.ek_lo_cut) (lit v.(2));
      pr "  else if x <> 0.0 && Float.abs t < %s then\n" (lit k.ek_near_cut);
      pr "    (if x > 0.0 then %s else %s)\n" (lit v.(4)) (lit v.(3));
      pr "  else begin\n";
      pr "    let n = Float.floor t in\n";
      pr "    let r = t -. n in\n";
      emit_pieces Ml buf pieces ~indent:"    " ~scale:[];
      pr "    Float.ldexp p (int_of_float n)\n  end\n"
  | Rlibm.Reduction.Log_kernel k ->
      let tsize = Array.length k.Rlibm.Reduction.lk_table in
      pr "  let m2, e2 = Float.frexp x in\n";
      pr "  let m = 2.0 *. m2 and k = e2 - 1 in\n";
      pr "  let j = int_of_float ((m -. 1.0) *. %d.) in\n" tsize;
      pr "  let f = 1.0 +. (float_of_int j /. %d.) in\n" tsize;
      pr "  let r = (m -. f) /. f in\n";
      if k.lk_exact then pr "  let c = float_of_int k +. %s_tbl.(j) in\n" name
      else
        pr "  let c = Float.fma (float_of_int k) %s %s_tbl.(j) in\n"
          (ml_arg (lit k.lk_scale)) name;
      emit_pieces Ml buf pieces ~indent:"  " ~scale:[ tsize ];
      pr "  c +. p\n");
  pr "  end\n";
  Buffer.contents buf
