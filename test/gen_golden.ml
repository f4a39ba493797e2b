(* Regenerate the committed codegen golden snapshots:

     dune exec test/gen_golden.exe [DIR]     (default DIR: test/golden)

   Run after an intentional codegen change, review the diff, commit.
   Generation is deterministic (seeded RNG, fixed knobs), so the output
   is a pure function of the case list below — keep it in sync with
   test_codegen.ml.  This executable cannot share test_main's modules,
   so [tiny_cfg] is a copy of [Test_tmp.tiny_cfg]. *)

let tiny_cfg =
  {
    Rlibm.Config.default_mini with
    Rlibm.Config.tin = Softfp.make_fmt ~ebits:4 ~prec:7;
    table_bits = 3;
    max_specials = 40;
    max_rounds = 20;
  }

let piecewise_log_cfg = { tiny_cfg with Rlibm.Config.pieces = 2 }

let cases =
  [
    ("exp_estrin_fma", Oracle.Exp, Polyeval.EstrinFma, tiny_cfg);
    ("log2_piecewise", Oracle.Log2, Polyeval.Horner, piecewise_log_cfg);
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  Cache.with_persistence false (fun () ->
      List.iter
        (fun (name, func, scheme, cfg) ->
          match Pipeline.generate ~cfg ~scheme func with
          | Error msg ->
              Printf.eprintf "%s: generation failed: %s\n" name
                (Diag.Error.to_string msg);
              exit 1
          | Ok g ->
              let emitted = "rlibm_" ^ Oracle.name func in
              let write ext src =
                let path = Filename.concat dir (name ^ ext ^ ".golden") in
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_string oc src);
                Printf.printf "wrote %s\n" path
              in
              write ".c" (Codegen.to_c g ~name:emitted);
              write ".ml" (Codegen.to_ocaml g ~name:emitted))
        cases)
