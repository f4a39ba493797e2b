(* The pipeline at the paper's actual width: binary32 inputs, 34-bit
   round-to-odd target (fp34), Estrin+FMA evaluation.

   Exhaustive float32 generation needs all 2^32 oracle results (the
   artifact ships them as 12 GB files); this demo instead generates from a
   stratified sample of inputs and verifies on a disjoint sample — the
   pipeline code is identical, only the input set differs (see DESIGN.md,
   "Scale substitutions").

   Run with:  dune exec examples/float32_demo.exe -- [sample-size]
   (default 40000 constraint inputs).  A sample's oracle table is partial
   and private to the run: nothing is read from or written to the
   artifact store, so every run pays the oracle again. *)

let () =
  let sample =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 40_000
  in
  let func = Oracle.Exp2 in
  let cfg = Rlibm.Config.float32_for func in
  let tin = cfg.Rlibm.Config.tin in
  Printf.printf
    "Generating %s for binary32 from %d sampled inputs (fp34 round-to-odd \
     target)...\n%!"
    (Oracle.name func) sample;
  let t0 = Unix.gettimeofday () in
  let gen, gen_inputs, oracle =
    Genlibm.generate_sampled ~cfg ~scheme:Polyeval.EstrinFma ~count:sample
      ~seed:42 func
  in
  match gen with
  | Error msg ->
      Printf.printf "generation failed: %s\n" (Diag.Error.to_string msg);
      exit 1
  | Ok g ->
      Printf.printf "Generated in %.1fs: %s\n%!"
        (Unix.gettimeofday () -. t0)
        (Format.asprintf "%a" Genlibm.pp_table1_row (Genlibm.table1_row g));
      Array.iteri
        (fun i (p : Polyeval.compiled) ->
          Printf.printf "  piece %d: degree %d, %s\n" i p.Polyeval.degree
            (Format.asprintf "%a" Expr.pp_cost (Polyeval.cost p)))
        g.Rlibm.Generate.pieces;

      (* Sanity spot-check against the double libm. *)
      Printf.printf "\nSpot checks (vs glibc exp2, which is not always \
                     correctly rounded):\n";
      List.iter
        (fun x ->
          (* the binary32 input nearest x, through the reference path *)
          let b = Softfp.bits_of_float32 x in
          let x = Softfp.to_float tin b in
          let v = Genlibm.eval_bits g b in
          Printf.printf "  exp2(%10.5f) = %-22.17g glibc: %-22.17g\n" x v
            (Float.exp2 x))
        [ 0.5; -3.2; 17.125; 88.6; -126.0 ];

      (* Verify on the generation sample and on a disjoint sample. *)
      let check name inputs =
        let t1 = Unix.gettimeofday () in
        let rep = Genlibm.verify ~oracle g ~inputs in
        Printf.printf "%s: %s [%.1fs]\n%!" name
          (Format.asprintf "%a" Genlibm.pp_verify_report rep)
          (Unix.gettimeofday () -. t1);
        rep.Genlibm.wrong34 + rep.Genlibm.wrong_narrow
      in
      let w1 = check "verify (generation sample)" gen_inputs in
      let fresh = Genlibm.inputs_sampled tin ~count:20_000 ~seed:2023 in
      let w2 = check "verify (fresh sample)     " fresh in
      if w1 > 0 then begin
        print_endline "\ngeneration-sample verification failed — pipeline bug";
        exit 1
      end;
      if w2 = 0 then
        print_endline
          "\nAll sampled binary32 results correctly rounded for all \
           representations\nof 10..32 bits and all 5 rounding modes. ✓"
      else
        Printf.printf
          "\nEvery *constrained* input is correctly rounded; the fresh \
           sample found %d\ninputs (%.3f%%) whose constraints the \
           generation sample missed.  This is\nthe expected limitation of \
           sampled generation — the artifact avoids it by\nconstraining \
           all 2^32 inputs from its precomputed oracle files (DESIGN.md,\n\
           \"Scale substitutions\").  A larger sample narrows the gap:\n  \
           dune exec examples/float32_demo.exe -- 200000\n"
          w2
          (100.0 *. float_of_int w2 /. float_of_int (Array.length fresh))
