(* Quickstart: generate a correctly rounded exp2 for a reduced-width float
   family with fast (Estrin + FMA) polynomial evaluation, inspect the
   result, and verify it exhaustively against the oracle.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Pick a configuration.  [Config.mini_for] describes a 13-bit input
     family with 5 exponent bits; the generated polynomial produces the
     round-to-odd result in a 15-bit target, which double-rounds correctly
     into every representation of 7..13 bits under all five standard
     rounding modes (the RLibm-All construction at reduced width). *)
  let func = Oracle.Exp2 in
  let cfg = Rlibm.Config.mini_for func in
  let tin = cfg.Rlibm.Config.tin in
  Printf.printf "Generating %s for %d-bit inputs (%d finite values)...\n%!"
    (Oracle.name func) (Softfp.width tin) (Softfp.count_finite tin);

  (* 2. Generate with the paper's best evaluation scheme integrated into
     the generation loop, and verify it exhaustively: the pipeline's
     last stage checks every finite input, every representation width
     and every standard rounding mode (the report is printed in step 4). *)
  let g, report =
    match Pipeline.verified ~cfg ~scheme:Polyeval.EstrinFma func with
    | Ok r -> r
    | Error msg -> failwith (Diag.Error.to_string msg)
  in
  Printf.printf "Generated: %s\n"
    (Format.asprintf "%a" Genlibm.pp_table1_row (Genlibm.table1_row g));
  Array.iteri
    (fun i piece ->
      Printf.printf "  piece %d coefficients (%s):\n" i
        (Polyeval.scheme_name piece.Polyeval.scheme);
      Array.iteri (fun k c -> Printf.printf "    c%d = %h\n" k c)
        piece.Polyeval.data;
      Printf.printf "  cost: %s\n"
        (Format.asprintf "%a" Expr.pp_cost (Polyeval.cost piece)))
    g.Rlibm.Generate.pieces;

  (* 3. Use it: evaluate a few inputs and compare with the real function. *)
  Printf.printf "\nSample evaluations (double output, then rounded to %d bits):\n"
    (Softfp.width tin);
  List.iter
    (fun x ->
      let bits = Softfp.of_rat tin Softfp.RNE (Rat.of_float x) in
      let v = Genlibm.eval_bits g bits in
      let rounded =
        Softfp.to_float tin
          (Genlibm.round_result tin Softfp.RNE v)
      in
      Printf.printf "  exp2(%8.4f) = %-22.17g (rounded: %.8g, libm: %.8g)\n"
        (Softfp.to_float tin bits) v rounded
        (Float.exp2 (Softfp.to_float tin bits)))
    [ 0.0; 0.5; 1.3; -2.7; 7.9; -11.25 ];

  (* 4. The verification verdict from step 2. *)
  Printf.printf "\nExhaustive verification...\n%!";
  Printf.printf "%s\n"
    (Format.asprintf "%a" Genlibm.pp_verify_report report);
  if report.Genlibm.wrong34 = 0 && report.Genlibm.wrong_narrow = 0 then
    print_endline "All results correctly rounded. ✓"
  else begin
    print_endline "VERIFICATION FAILED";
    exit 1
  end
