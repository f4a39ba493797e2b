(* Test entry point: one alcotest section per library, substrates first. *)

let () =
  Alcotest.run "rlibm-fastpoly"
    [
      ("bigint", Test_bigint.suite);
      ("rat", Test_rat.suite);
      ("softfp", Test_softfp.suite);
      ("dyadic", Test_dyadic.suite);
      ("diag", Test_diag.suite);
      ("funcspec", Test_funcspec.suite);
      ("oracle", Test_oracle.suite);
      ("lp", Test_lp.suite);
      ("polyeval", Test_polyeval.suite);
      ("rlibm", Test_rlibm.suite);
      ("genlibm", Test_genlibm.suite);
      ("codegen", Test_codegen.suite);
      ("cache", Test_cache.suite);
      ("fault", Test_fault.suite);
      ("pipeline", Test_pipeline.suite);
      ("serve", Test_serve.suite);
      ("kernels", Test_kernels.suite);
      (* The determinism tests disable store persistence with the scoped
         Cache.with_persistence override, so suite order no longer
         matters for cache state. *)
      ("parallel", Test_parallel.suite);
    ]
