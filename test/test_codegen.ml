(* Codegen coverage: golden-snapshot tests for the emitted C and OCaml
   (an exponential and a piecewise logarithm), hex-literal round-trips,
   a compile smoke of the emitted C, and both languages' emitted source
   run against the served kernel when their compiler is on PATH.

   The goldens live in test/golden/*.golden and are committed:
   generation is deterministic (seeded RNG, fixed knobs), so the emitted
   source is a pure function of this case list.  After an intentional
   codegen change, regenerate with

     dune exec test/gen_golden.exe

   review the diff and commit it.  Keep [cases] in sync with
   gen_golden.ml. *)

let tiny_cfg = Test_tmp.tiny_cfg

(* Two pieces force the piecewise emission branch of both backends. *)
let piecewise_log_cfg = { tiny_cfg with Rlibm.Config.pieces = 2 }

let cases =
  [
    ("exp_estrin_fma", Oracle.Exp, Polyeval.EstrinFma, tiny_cfg);
    ("log2_piecewise", Oracle.Log2, Polyeval.Horner, piecewise_log_cfg);
  ]

let generate_case (name, func, scheme, cfg) =
  match Test_tmp.generate ~cfg ~scheme func with
  | Error msg ->
      Alcotest.failf "%s: generation failed: %s" name (Diag.Error.to_string msg)
  | Ok g -> g

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* dune runtest runs in _build/default/test (goldens staged via the
   stanza's deps); dune exec from the workspace root sees test/golden. *)
let golden_path file =
  let rel = Filename.concat "golden" file in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let check_golden name src =
  let path = golden_path (name ^ ".golden") in
  if not (Sys.file_exists path) then
    Alcotest.failf
      "missing golden snapshot %s — generate it with: dune exec \
       test/gen_golden.exe"
      path;
  if src <> read_file path then
    Alcotest.failf
      "%s drifted from its golden snapshot; if the change is intentional, \
       regenerate with: dune exec test/gen_golden.exe — and review the diff"
      name

let emitted_name func = "rlibm_" ^ Oracle.name func

let test_golden (((name, func, _, _) as case) : string * _ * _ * _) lang () =
  let g = generate_case case in
  match lang with
  | `C -> check_golden (name ^ ".c") (Codegen.to_c g ~name:(emitted_name func))
  | `Ml ->
      check_golden (name ^ ".ml") (Codegen.to_ocaml g ~name:(emitted_name func))

(* The reduction constants the emitted source must carry, read from the
   served kernel record: the exponentials' scale, cut-offs and settled
   values; the logarithms' table, plus log_b 2 where k * log_b 2 is not
   exact (log2 adds k directly). *)
let kernel_constants (g : Rlibm.Generate.generated) =
  match g.Rlibm.Generate.family.Rlibm.Reduction.kernel with
  | Rlibm.Reduction.Exp_kernel k ->
      [
        ("log2_base", k.Rlibm.Reduction.ek_scale);
        ("hi_cut", k.ek_hi_cut);
        ("lo_cut", k.ek_lo_cut);
        ("near_cut", k.ek_near_cut);
      ]
      @ List.map
          (fun i -> (Printf.sprintf "settled[%d]" i, k.ek_settled.(i)))
          [ 1; 2; 3; 4 ]
  | Rlibm.Reduction.Log_kernel k ->
      List.mapi
        (fun i t -> (Printf.sprintf "tbl[%d]" i, t))
        (Array.to_list k.Rlibm.Reduction.lk_table)
      @ if k.lk_exact then [] else [ ("log_b 2", k.lk_scale) ]

(* Every constant of the generated implementation — polynomial
   coefficients and reduction-table entries — must survive the
   hex-literal round trip: print with %h, parse back, compare bits.
   This is the property that makes the emitted source bit-faithful. *)
let test_hex_roundtrip () =
  let check_const label v =
    let printed = Printf.sprintf "%h" v in
    let back = float_of_string printed in
    Alcotest.(check int64) label (Int64.bits_of_float v)
      (Int64.bits_of_float back)
  in
  List.iter
    (fun (((name, _, _, _) as case) : string * _ * _ * _) ->
      let g = generate_case case in
      Array.iteri
        (fun pi (piece : Polyeval.compiled) ->
          Array.iteri
            (fun ci c ->
              check_const (Printf.sprintf "%s piece %d c%d" name pi ci) c)
            piece.Polyeval.data)
        g.Rlibm.Generate.pieces;
      List.iter
        (fun (what, v) -> check_const (Printf.sprintf "%s %s" name what) v)
        (kernel_constants g))
    cases

(* Emitted constants appear verbatim in both backends (same %h text). *)
let test_constants_emitted () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (((name, func, _, _) as case) : string * _ * _ * _) ->
      let g = generate_case case in
      let c_src = Codegen.to_c g ~name:(emitted_name func) in
      let ml_src = Codegen.to_ocaml g ~name:(emitted_name func) in
      let coefs =
        Array.to_list g.Rlibm.Generate.pieces
        |> List.concat_map (fun (piece : Polyeval.compiled) ->
               Array.to_list piece.Polyeval.data)
      in
      List.iter
        (fun v ->
          let lit = Printf.sprintf "%h" v in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s in C" name lit)
            true (contains c_src lit);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s in OCaml" name lit)
            true (contains ml_src lit))
        (coefs @ List.map snd (kernel_constants g)))
    cases

let have_cc () = Sys.command "command -v cc >/dev/null 2>&1" = 0
let skip_no_cc () = print_endline "skipped: no C compiler (cc) on PATH"

(* Compile smoke: the emitted C must be an accepted C99 translation
   unit.  Skipped with a message when no C compiler is on PATH (the
   container guarantees the OCaml toolchain only). *)
let test_c_compiles () =
  if not (have_cc ()) then skip_no_cc ()
  else
    List.iter
      (fun (((name, func, _, _) as case) : string * _ * _ * _) ->
        let g = generate_case case in
        let src = Codegen.to_c g ~name:(emitted_name func) in
        let c_file = Filename.temp_file "rlibm_codegen" ".c" in
        let o_file = Filename.temp_file "rlibm_codegen" ".o" in
        Fun.protect
          ~finally:(fun () ->
            (try Sys.remove c_file with Sys_error _ -> ());
            try Sys.remove o_file with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_bin c_file (fun oc ->
                Out_channel.output_string oc src);
            let rc =
              Sys.command
                (Printf.sprintf "cc -std=c99 -Wall -c %s -o %s"
                   (Filename.quote c_file) (Filename.quote o_file))
            in
            Alcotest.(check int) (name ^ " compiles") 0 rc))
      cases

(* ---------- the emitted source, run ---------- *)

(* The six functions x five schemes on mini, each at its per-function
   preset: the emitted source, compiled (C with contraction off) and run
   on every pattern of the format, must return the served kernel's bits
   ([Genlibm.eval_bits_into]), NaN payloads included.  A small main in
   the same language (the runner) reads the inputs as double bit
   patterns (NaN patterns as the kernel's [Float.nan]) and prints each
   function's result bits. *)
let mini_grid =
  List.concat_map
    (fun func -> List.map (fun scheme -> (func, scheme)) Polyeval.all_schemes)
    [ Oracle.Exp; Oracle.Exp2; Oracle.Exp10; Oracle.Log; Oracle.Log2; Oracle.Log10 ]

let c_ident func scheme =
  String.map
    (fun c -> if c = '-' then '_' else c)
    (Printf.sprintf "rlibm_%s_%s" (Oracle.name func) (Polyeval.scheme_name scheme))

let c_runner idents =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n#include <stdint.h>\n\n";
  List.iter (pr "double %s(double);\n") idents;
  pr "\nstatic double (*const fns[])(double) = {\n";
  List.iter (pr "  %s,\n") idents;
  pr "};\n\n";
  pr "int main(void) {\n";
  pr "  static double xs[1 << 16];\n  size_t n = 0;\n  char line[64];\n";
  pr "  while (n < sizeof xs / sizeof xs[0] && fgets(line, sizeof line, stdin)) {\n";
  pr "    uint64_t u = strtoull(line, NULL, 16);\n    memcpy(&xs[n++], &u, sizeof u);\n  }\n";
  pr "  for (size_t f = 0; f < sizeof fns / sizeof fns[0]; f++)\n";
  pr "    for (size_t i = 0; i < n; i++) {\n";
  pr "      double y = fns[f](xs[i]);\n      uint64_t u;\n      memcpy(&u, &y, sizeof u);\n";
  pr "      printf(\"%%016llx\\n\", (unsigned long long) u);\n    }\n";
  pr "  return 0;\n}\n";
  Buffer.contents b

(* The OCaml runner, a second module next to [Emitted]. *)
let ml_runner idents =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "let fns = [|\n";
  List.iter (pr "  Emitted.%s;\n") idents;
  pr "|]\n\n";
  pr "let () =\n";
  pr "  let xs =\n    Array.of_list\n";
  pr "      (List.map (fun l -> Int64.float_of_bits (Int64.of_string (\"0x\" ^ l)))\n";
  pr "         (In_channel.input_lines stdin))\n  in\n";
  pr "  Array.iter\n";
  pr "    (fun f ->\n";
  pr "      Array.iter\n";
  pr "        (fun x -> Printf.printf \"%%016Lx\\n\" (Int64.bits_of_float (f x))) xs)\n";
  pr "    fns\n";
  Buffer.contents b

(* Emits every function of [mini_grid] into emitted[ext], writes the
   runner beside it and the inputs, builds both with [compile ~exe
   ~dir sources] (one shell command), runs the program and compares
   every result with the kernel's. *)
let check_emitted_runs ~lang ~ext ~emit ~runner ~compile =
  let gens =
    List.map
      (fun (func, scheme) ->
        let cfg = Rlibm.Config.mini_for func in
        match Test_tmp.generate ~cfg ~scheme func with
        | Ok g -> (c_ident func scheme, g)
        | Error e ->
            Alcotest.failf "%s: generation failed: %s" (c_ident func scheme)
              (Diag.Error.to_string e))
      mini_grid
  in
  let tin = Rlibm.Config.default_mini.Rlibm.Config.tin in
  let n = 1 lsl Softfp.width tin in
  let patterns = Array.init n Int64.of_int in
  Test_tmp.with_dir "rlibm-codegen-run-" (fun dir ->
      let file f = Filename.concat dir f in
      Out_channel.with_open_bin (file ("emitted" ^ ext)) (fun oc ->
          List.iter (fun (id, g) -> Out_channel.output_string oc (emit g ~name:id)) gens);
      Out_channel.with_open_bin (file ("runner" ^ ext)) (fun oc ->
          Out_channel.output_string oc (runner (List.map fst gens)));
      Out_channel.with_open_bin (file "inputs.txt") (fun oc ->
          Array.iter
            (fun b -> Printf.fprintf oc "%Lx\n" (Int64.bits_of_float (Softfp.to_float tin b)))
            patterns);
      let q = Filename.quote in
      let rc =
        Sys.command
          (compile ~exe:(q (file "run")) ~dir:(q dir)
             [ q (file ("emitted" ^ ext)); q (file ("runner" ^ ext)) ])
      in
      Alcotest.(check int) ("emitted " ^ lang ^ " and runner compile") 0 rc;
      let rc =
        Sys.command
          (Printf.sprintf "%s < %s > %s" (q (file "run")) (q (file "inputs.txt"))
             (q (file "outputs.txt")))
      in
      Alcotest.(check int) "runner runs" 0 rc;
      let lines = In_channel.with_open_bin (file "outputs.txt") In_channel.input_lines in
      Alcotest.(check int) "one result per function and pattern" (n * List.length gens)
        (List.length lines);
      let outputs = Array.of_list lines in
      let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
      Array.iteri (Bigarray.Array1.set src) patterns;
      List.iteri
        (fun f (id, g) ->
          Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n;
          let mismatches = ref 0 and first = ref None in
          Array.iteri
            (fun i b ->
              let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
              let c = Int64.of_string ("0x" ^ outputs.((f * n) + i)) in
              if not (Int64.equal k c) then begin
                incr mismatches;
                if !first = None then first := Some (b, k, c)
              end)
            patterns;
          match !first with
          | None -> ()
          | Some (b, k, c) ->
              Alcotest.failf "%s: %d mismatches; first at pattern %Lx: kernel %Lx, %s %Lx" id
                !mismatches b k lang c)
        gens)

let test_c_runs () =
  if not (have_cc ()) then skip_no_cc ()
  else
    check_emitted_runs ~lang:"C" ~ext:".c" ~emit:Codegen.to_c ~runner:c_runner
      ~compile:(fun ~exe ~dir:_ sources ->
        Printf.sprintf "cc -O2 -std=c99 -ffp-contract=off -o %s %s -lm" exe
          (String.concat " " sources))

(* One ocamlopt call builds both modules; [-I dir] lets the runner see
   the emitted module's interface. *)
let test_ml_runs () =
  if Sys.command "command -v ocamlopt >/dev/null 2>&1" <> 0 then
    print_endline "skipped: no OCaml native compiler (ocamlopt) on PATH"
  else
    check_emitted_runs ~lang:"OCaml" ~ext:".ml" ~emit:Codegen.to_ocaml
      ~runner:ml_runner ~compile:(fun ~exe ~dir sources ->
        Printf.sprintf "ocamlopt -w -a -I %s -o %s %s" dir exe
          (String.concat " " sources))

let suite =
  let golden_tests =
    List.concat_map
      (fun ((name, _, _, _) as case) ->
        [
          (name ^ ".c matches golden", `Slow, test_golden case `C);
          (name ^ ".ml matches golden", `Slow, test_golden case `Ml);
        ])
      cases
  in
  golden_tests
  @ [
      ("hex literals round-trip", `Slow, test_hex_roundtrip);
      ("constants emitted verbatim", `Slow, test_constants_emitted);
      ("emitted C compiles (cc smoke)", `Slow, test_c_compiles);
      ("emitted C = served kernel (6 functions x 5 schemes, mini)", `Slow, test_c_runs);
      ("emitted OCaml = served kernel (6 functions x 5 schemes, mini)", `Slow, test_ml_runs);
    ]
