(* One polynomial, every representation, every rounding mode.

   This example demonstrates the RLibm-All property that the paper's
   generated functions inherit: a single polynomial approximation whose
   double result rounds to the round-to-odd value of the (n+2)-bit target
   produces correctly rounded results for *all* representations with
   E+2..n total bits and *all five* standard rounding modes.

   We generate log2 once, then check the full (width x mode) grid
   exhaustively and print a matrix of mismatch counts — all zeros.

   Run with:  dune exec examples/multi_rounding.exe *)

let () =
  let func = Oracle.Log2 in
  let cfg = Rlibm.Config.mini_for func in
  let tin = cfg.Rlibm.Config.tin in
  let tout = Rlibm.Config.tout cfg in
  Printf.printf
    "Generating one %s polynomial for the %d-bit round-to-odd target...\n%!"
    (Oracle.name func) (Softfp.width tout);
  let g =
    match Pipeline.generate ~cfg ~scheme:Polyeval.EstrinFma func with
    | Ok g -> g
    | Error msg -> failwith (Diag.Error.to_string msg)
  in
  Printf.printf "Generated: %s\n\n"
    (Format.asprintf "%a" Genlibm.pp_table1_row (Genlibm.table1_row g));

  let inputs = Genlibm.inputs_exhaustive tin in
  let widths =
    List.init
      (Softfp.width tin - (tin.Softfp.ebits + 2) + 1)
      (fun i -> tin.Softfp.ebits + 2 + i)
  in
  let modes = Softfp.all_standard_modes in
  Printf.printf "Checking %d finite inputs x %d widths x %d modes = %d results\n%!"
    (Array.length inputs) (List.length widths) (List.length modes)
    (Array.length inputs * List.length widths * List.length modes);
  Printf.printf "%-8s" "width";
  List.iter (fun m -> Printf.printf "%10s" (Softfp.mode_to_string m)) modes;
  print_newline ();
  (* One memoizing rounder per input: the enclosure of f(x) is computed
     once and reused for every (width, mode) cell. *)
  let rounders =
    Array.map
      (fun x ->
        if Softfp.is_finite tin x then begin
          let xq = Softfp.to_rat tin x in
          (* log2 of zero / a negative number has no polynomial path and no
             oracle value; the implementation's -inf / NaN is covered by the
             test suite, so the grid skips those inputs. *)
          if Oracle.domain_ok func xq then
            Some (x, Oracle.make_rounder func xq)
          else None
        end
        else None)
      inputs
  in
  let wrong = Array.make_matrix (List.length widths) (List.length modes) 0 in
  Array.iter
    (function
      | None -> ()
      | Some (x, rounder) ->
          let v = Genlibm.eval_bits g x in
          List.iteri
            (fun wi w ->
              let fmt_k =
                Softfp.make_fmt ~ebits:tin.Softfp.ebits ~prec:(w - tin.Softfp.ebits)
              in
              List.iteri
                (fun mi mode ->
                  (* round the implementation's double directly to the k-bit
                     format, and ask the oracle for the true k-bit result *)
                  let direct = Genlibm.round_result fmt_k mode v in
                  let truth = Oracle.round_with rounder ~fmt:fmt_k ~mode in
                  if not (Int64.equal direct truth) then
                    wrong.(wi).(mi) <- wrong.(wi).(mi) + 1)
                modes)
            widths)
    rounders;
  let any_wrong = ref false in
  List.iteri
    (fun wi w ->
      Printf.printf "%-8d" w;
      List.iteri
        (fun mi _ ->
          if wrong.(wi).(mi) > 0 then any_wrong := true;
          Printf.printf "%10d" wrong.(wi).(mi))
        modes;
      print_newline ())
    widths;
  print_newline ();
  if !any_wrong then begin
    print_endline "Some results were wrong!";
    exit 1
  end
  else
    Printf.printf
      "0 mismatches anywhere: one %d-bit round-to-odd polynomial serves all\n\
       %d representations and all 5 rounding modes. ✓\n"
      (Softfp.width tout) (List.length widths)
