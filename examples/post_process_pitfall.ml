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

(* Re-compile each piece of the Horner-generated function under [scheme]
   (for Knuth this adapts the coefficients as a post-process), keep its
   special table, and count the inputs whose served result leaves the
   round-to-odd rounding interval.  [None] when [scheme] is undefined at
   some piece's degree. *)
let count_wrong_post_process g ~oracle scheme inputs =
  let adapted =
    Array.map
      (fun (piece : Polyeval.compiled) -> Polyeval.compile scheme piece.Polyeval.data)
      g.Rlibm.Generate.pieces
  in
  if Array.exists Option.is_none adapted then None
  else
    let post =
      { g with Rlibm.Generate.scheme; pieces = Array.map Option.get adapted }
    in
    Some (Genlibm.verify ~narrow:false ~oracle post ~inputs).Genlibm.wrong34

let () =
  Printf.printf
    "Post-processing vs integrated fast polynomial evaluation (§6.3)\n\n";
  Printf.printf "%-7s %-11s %22s %22s\n" "f" "scheme" "post-process: #wrong"
    "integrated: #specials";
  List.iter
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      let inputs = Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin in
      match Pipeline.generate ~cfg ~scheme:Polyeval.Horner func with
      | Error msg ->
          Printf.printf "%-7s generation failed: %s\n" (Oracle.name func)
            (Diag.Error.to_string msg)
      | Ok horner_g ->
          let oracle = Result.get_ok (Pipeline.oracle_stage ~cfg func) in
          List.iter
            (fun scheme ->
              let post =
                count_wrong_post_process horner_g ~oracle scheme inputs
              in
              let integrated =
                match Pipeline.verified ~narrow:false ~cfg ~scheme func with
                | Ok (g, rep) ->
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
