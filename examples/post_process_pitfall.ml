(* Section 6.3 of the paper: why fast polynomial evaluation must live
   *inside* the generation loop.

   Taking the polynomial RLibm generated for Horner evaluation and merely
   re-evaluating it with adapted coefficients / Estrin / FMA as a
   post-process loses correctness: the rounding behaviour of the new
   operation schedule pushes some inputs outside their rounding intervals.
   The integrated loop (generate -> adapt -> validate -> constrain)
   recovers correctness with a handful of special-case inputs.

   This example quantifies both sides on the reduced-width universe, for
   every function and every fast evaluation scheme.

   Run with:  dune exec examples/post_process_pitfall.exe *)

let count_wrong_post_process g scheme inputs =
  (* Re-compile each piece of the Horner-generated function under [scheme]
     (for Knuth this adapts the coefficients as a post-process), evaluate
     the result through the served kernel, then count inputs whose result
     leaves the round-to-odd rounding interval. *)
  let tin = g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let tout = Rlibm.Config.tout g.Rlibm.Generate.cfg in
  let adapted =
    Array.map
      (fun (piece : Polyeval.compiled) -> Polyeval.compile scheme piece.Polyeval.data)
      g.Rlibm.Generate.pieces
  in
  if Array.exists (fun c -> c = None) adapted then None
  else begin
    let post =
      { g with Rlibm.Generate.scheme; pieces = Array.map Option.get adapted }
    in
    let n = Array.length inputs in
    let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
    Array.iteri (Bigarray.Array1.set src) inputs;
    Genlibm.eval_bits_into post ~src ~dst ~lo:0 ~hi:n;
    let wrong = ref 0 in
    Array.iteri
      (fun i x ->
        if
          Softfp.is_finite tin x
          && (not (Hashtbl.mem g.Rlibm.Generate.specials x))
          && g.Rlibm.Generate.family.Rlibm.Reduction.shortcut
               (Softfp.to_float tin x)
             = None
        then
          let y_impl = Genlibm.round_result tout Softfp.RTO dst.{i} in
          match Hashtbl.find_opt g.Rlibm.Generate.oracle x with
          | Some y_true when not (Int64.equal y_impl y_true) -> incr wrong
          | _ -> ())
      inputs;
    Some !wrong
  end

let () =
  Printf.printf
    "Post-processing vs integrated fast polynomial evaluation (§6.3)\n\n";
  Printf.printf "%-7s %-11s %22s %22s\n" "f" "scheme" "post-process: #wrong"
    "integrated: #specials";
  List.iter
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      let inputs = Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin in
      match Genlibm.generate ~cfg ~scheme:Polyeval.Horner func with
      | Error msg ->
          Printf.printf "%-7s generation failed: %s\n" (Oracle.name func)
            (Diag.Error.to_string msg)
      | Ok horner_g ->
          List.iter
            (fun scheme ->
              let post = count_wrong_post_process horner_g scheme inputs in
              let integrated =
                match Genlibm.generate ~cfg ~scheme func with
                | Ok g ->
                    let rep = Genlibm.verify ~narrow:false g ~inputs in
                    if rep.Genlibm.wrong34 = 0 then
                      Printf.sprintf "%d (all correct)"
                        (Rlibm.Generate.n_specials g)
                    else Printf.sprintf "STILL WRONG: %d" rep.Genlibm.wrong34
                | Error _ -> "generation failed"
              in
              Printf.printf "%-7s %-11s %22s %22s\n%!" (Oracle.name func)
                (Polyeval.scheme_name scheme)
                (match post with
                | None -> "n/a"
                | Some w -> string_of_int w)
                integrated)
            [ Polyeval.Knuth; Polyeval.Estrin; Polyeval.EstrinFma ])
    [ Oracle.Exp2; Oracle.Exp10; Oracle.Log2 ];
  print_newline ();
  print_endline
    "Reading the table: a Horner-generated polynomial re-evaluated with a\n\
     fast scheme produces wrong results for the inputs in the third column\n\
     (the paper reports e.g. 10^x gaining 4 extra wrong inputs); the\n\
     integrated pipeline instead ships a polynomial plus the small special\n\
     table in the fourth column, and verifies correct for every input."
