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
                  | Ml -> Printf.sprintf "Float.fma %s %s %s" a b c)
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
  Hashtbl.fold
    (fun bits v acc -> (Softfp.to_float tin bits, v) :: acc)
    g.Rlibm.Generate.specials []
  |> List.sort compare

(* ---------- shared pieces of the wrappers ---------- *)

type exp_cuts = {
  hi_cut : float;
  lo_cut : float;
  v_huge : float;
  v_tiny : float;
  near_cut : float;
  v_above_one : float;
  v_below_one : float;
}

let shortcut_constants (g : Rlibm.Generate.generated) =
  let tout = Rlibm.Config.tout g.Rlibm.Generate.cfg in
  let emax = float_of_int (Softfp.emax tout) in
  let emin = Softfp.emin tout and prec = tout.Softfp.prec in
  {
    hi_cut = emax +. 1.1;
    lo_cut = float_of_int (emin - prec) -. 1.1;
    v_huge = Float.ldexp 1.0 (Softfp.emax tout + 1);
    v_tiny = Float.ldexp 1.0 (emin - prec - 2);
    near_cut = Float.ldexp 1.0 (-(prec + 3));
    v_above_one = 1.0 +. Float.ldexp 1.0 (-(prec + 1));
    v_below_one = 1.0 -. Float.ldexp 1.0 (-(prec + 2));
  }

let piece_select_expr lang pieces =
  match lang with
  | C -> Printf.sprintf "(int)(r * %d.0)" pieces
  | Ml -> Printf.sprintf "int_of_float (r *. %d.)" pieces

(* ---------- C ---------- *)

let to_c (g : Rlibm.Generate.generated) ~name =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let specials = specials_list g in
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
    List.iter
      (fun (x, v) -> pr "  {%s, %s},\n" (float_lit C x) (float_lit C v))
      specials;
    pr "};\n\n"
  end;
  (match g.Rlibm.Generate.family.Rlibm.Reduction.params with
  | Rlibm.Reduction.Log_params { table; _ } ->
      pr "static const double %s_tbl[%d] = {\n" name (Array.length table);
      Array.iter (fun v -> pr "  %s,\n" (float_lit C v)) table;
      pr "};\n\n"
  | Rlibm.Reduction.Exp_params _ -> ());
  pr "double %s(double x) {\n" name;
  (* non-finite and special handling *)
  let is_exp =
    match g.Rlibm.Generate.family.Rlibm.Reduction.params with
    | Rlibm.Reduction.Exp_params _ -> true
    | Rlibm.Reduction.Log_params _ -> false
  in
  pr "  if (isnan(x)) return x;\n";
  if is_exp then pr "  if (isinf(x)) return x > 0 ? x : 0.0;\n"
  else begin
    pr "  if (x == 0.0) return -INFINITY;\n";
    (* The kernel's own NaN bits (Float.nan's payload, which C's NAN
       lacks), so the C is bit-identical to it. *)
    pr "  static const union { uint64_t u; double d; } nan_bits = { 0x%LxULL };\n\
       \  if (x < 0.0) return nan_bits.d;\n" (Int64.bits_of_float Float.nan);
    pr "  if (isinf(x)) return x;\n"
  end;
  if specials <> [] then begin
    pr "  for (unsigned i = 0; i < sizeof %s_special / sizeof %s_special[0]; i++)\n"
      name name;
    pr "    if (x == %s_special[i][0]) return %s_special[i][1];\n" name name
  end;
  (match g.Rlibm.Generate.family.Rlibm.Reduction.params with
  | Rlibm.Reduction.Exp_params { log2_base } ->
      let k = shortcut_constants g in
      pr "  double t = x * %s;\n" (float_lit C log2_base);
      pr "  if (t > %s) return %s;\n" (float_lit C k.hi_cut) (float_lit C k.v_huge);
      pr "  if (t < %s) return %s;\n" (float_lit C k.lo_cut) (float_lit C k.v_tiny);
      pr "  if (x != 0.0 && fabs(t) < %s) return x > 0.0 ? %s : %s;\n"
        (float_lit C k.near_cut) (float_lit C k.v_above_one)
        (float_lit C k.v_below_one);
      pr "  double n = floor(t);\n";
      pr "  double r = t - n;\n";
      if Array.length g.Rlibm.Generate.pieces > 1 then begin
        pr "  int piece = %s;\n"
          (piece_select_expr C (Array.length g.Rlibm.Generate.pieces));
        pr "  if (piece >= %d) piece = %d;\n"
          (Array.length g.Rlibm.Generate.pieces)
          (Array.length g.Rlibm.Generate.pieces - 1);
        pr "  double p;\n";
        Array.iteri
          (fun i piece_c ->
            pr "  %s (piece == %d) {\n" (if i = 0 then "if" else "else if") i;
            let res = emit_poly C buf piece_c ~arg:"r" ~indent:"    " in
            pr "    p = %s;\n  }\n" res)
          g.Rlibm.Generate.pieces;
        pr "  else p = 0.0; /* unreachable */\n"
      end
      else begin
        let res = emit_poly C buf g.Rlibm.Generate.pieces.(0) ~arg:"r" ~indent:"  " in
        pr "  double p = %s;\n" res
      end;
      pr "  return ldexp(p, (int) n);\n"
  | Rlibm.Reduction.Log_params { table_bits; k_scale; k_exact; _ } ->
      let tsize = 1 lsl table_bits in
      pr "  int e2;\n";
      pr "  double m = 2.0 * frexp(x, &e2);\n";
      pr "  int k = e2 - 1;\n";
      pr "  int j = (int)((m - 1.0) * %d.0);\n" tsize;
      pr "  double F = 1.0 + (double) j / %d.0;\n" tsize;
      pr "  double r = (m - F) / F;\n";
      if k_exact then pr "  double c = (double) k + %s_tbl[j];\n" name
      else
        pr "  double c = fma((double) k, %s, %s_tbl[j]);\n"
          (float_lit C k_scale) name;
      if Array.length g.Rlibm.Generate.pieces > 1 then begin
        pr "  int piece = (int)(r * %d.0 * %d.0);\n" tsize
          (Array.length g.Rlibm.Generate.pieces);
        pr "  if (piece >= %d) piece = %d;\n"
          (Array.length g.Rlibm.Generate.pieces)
          (Array.length g.Rlibm.Generate.pieces - 1);
        pr "  double p;\n";
        Array.iteri
          (fun i piece_c ->
            pr "  %s (piece == %d) {\n" (if i = 0 then "if" else "else if") i;
            let res = emit_poly C buf piece_c ~arg:"r" ~indent:"    " in
            pr "    p = %s;\n  }\n" res)
          g.Rlibm.Generate.pieces;
        pr "  else p = 0.0; /* unreachable */\n"
      end
      else begin
        let res = emit_poly C buf g.Rlibm.Generate.pieces.(0) ~arg:"r" ~indent:"  " in
        pr "  double p = %s;\n" res
      end;
      pr "  return c + p;\n");
  pr "}\n";
  Buffer.contents buf

(* ---------- OCaml ---------- *)

let to_ocaml (g : Rlibm.Generate.generated) ~name =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let specials = specials_list g in
  pr "(* %s: correctly rounded %s (%s scheme), generated by rlibm-fastpoly *)\n"
    name
    (Oracle.name g.Rlibm.Generate.family.Rlibm.Reduction.func)
    (Polyeval.scheme_name g.Rlibm.Generate.scheme);
  if specials <> [] then begin
    pr "let %s_special = [|\n" name;
    List.iter
      (fun (x, v) -> pr "  (%s, %s);\n" (float_lit Ml x) (float_lit Ml v))
      specials;
    pr "|]\n\n"
  end;
  (match g.Rlibm.Generate.family.Rlibm.Reduction.params with
  | Rlibm.Reduction.Log_params { table; _ } ->
      pr "let %s_tbl = [|\n" name;
      Array.iter (fun v -> pr "  %s;\n" (float_lit Ml v)) table;
      pr "|]\n\n"
  | Rlibm.Reduction.Exp_params _ -> ());
  pr "let %s (x : float) : float =\n" name;
  let is_exp =
    match g.Rlibm.Generate.family.Rlibm.Reduction.params with
    | Rlibm.Reduction.Exp_params _ -> true
    | Rlibm.Reduction.Log_params _ -> false
  in
  pr "  if Float.is_nan x then x\n";
  if is_exp then
    pr "  else if x = Float.infinity then x\n  else if x = Float.neg_infinity then 0.0\n"
  else begin
    pr "  else if x = 0.0 then Float.neg_infinity\n";
    pr "  else if x < 0.0 then Float.nan\n";
    pr "  else if x = Float.infinity then x\n"
  end;
  if specials <> [] then begin
    pr "  else begin match Array.find_opt (fun (k, _) -> k = x) %s_special with\n"
      name;
    pr "  | Some (_, v) -> v\n  | None ->\n"
  end
  else pr "  else begin\n";
  (match g.Rlibm.Generate.family.Rlibm.Reduction.params with
  | Rlibm.Reduction.Exp_params { log2_base } ->
      let k = shortcut_constants g in
      pr "  let t = x *. %s in\n" (float_lit Ml log2_base);
      pr "  if t > %s then %s\n" (float_lit Ml k.hi_cut) (float_lit Ml k.v_huge);
      pr "  else if t < %s then %s\n" (float_lit Ml k.lo_cut) (float_lit Ml k.v_tiny);
      pr "  else if x <> 0.0 && Float.abs t < %s then\n"
        (float_lit Ml k.near_cut);
      pr "    (if x > 0.0 then %s else %s)\n"
        (float_lit Ml k.v_above_one) (float_lit Ml k.v_below_one);
      pr "  else begin\n";
      pr "    let n = Float.floor t in\n";
      pr "    let r = t -. n in\n";
      let npieces = Array.length g.Rlibm.Generate.pieces in
      if npieces > 1 then begin
        pr "    let piece = Stdlib.min %d (%s) in\n" (npieces - 1)
          (piece_select_expr Ml npieces);
        pr "    let p =\n";
        Array.iteri
          (fun i piece_c ->
            if i < npieces - 1 then pr "      if piece = %d then begin\n" i
            else pr "      begin\n";
            let res = emit_poly Ml buf piece_c ~arg:"r" ~indent:"        " in
            pr "        %s\n      end%s\n" res
              (if i < npieces - 1 then " else" else "");
            ())
          g.Rlibm.Generate.pieces;
        pr "    in\n"
      end
      else begin
        pr "    let p =\n";
        let res =
          emit_poly Ml buf g.Rlibm.Generate.pieces.(0) ~arg:"r" ~indent:"      "
        in
        pr "      %s\n    in\n" res
      end;
      pr "    Float.ldexp p (int_of_float n)\n  end\n"
  | Rlibm.Reduction.Log_params { table_bits; k_scale; k_exact; _ } ->
      let tsize = 1 lsl table_bits in
      pr "  let m2, e2 = Float.frexp x in\n";
      pr "  let m = 2.0 *. m2 and k = e2 - 1 in\n";
      pr "  let j = int_of_float ((m -. 1.0) *. %d.) in\n" tsize;
      pr "  let f = 1.0 +. (float_of_int j /. %d.) in\n" tsize;
      pr "  let r = (m -. f) /. f in\n";
      if k_exact then pr "  let c = float_of_int k +. %s_tbl.(j) in\n" name
      else
        pr "  let c = Float.fma (float_of_int k) %s %s_tbl.(j) in\n"
          (float_lit Ml k_scale) name;
      let npieces = Array.length g.Rlibm.Generate.pieces in
      if npieces > 1 then begin
        pr "  let piece = Stdlib.min %d (int_of_float (r *. %d. *. %d.)) in\n"
          (npieces - 1) tsize npieces;
        pr "  let p =\n";
        Array.iteri
          (fun i piece_c ->
            if i < npieces - 1 then pr "    if piece = %d then begin\n" i
            else pr "    begin\n";
            let res = emit_poly Ml buf piece_c ~arg:"r" ~indent:"      " in
            pr "      %s\n    end%s\n" res
              (if i < npieces - 1 then " else" else ""))
          g.Rlibm.Generate.pieces;
        pr "  in\n"
      end
      else begin
        pr "  let p =\n";
        let res =
          emit_poly Ml buf g.Rlibm.Generate.pieces.(0) ~arg:"r" ~indent:"    "
        in
        pr "    %s\n  in\n" res
      end;
      pr "  c +. p\n");
  pr "  end\n";
  Buffer.contents buf
