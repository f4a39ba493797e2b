(* Emit the generated functions as standalone C and OCaml source — the
   shape in which the paper's artifact ships its results (24 generated C
   implementations).

   Run with:  dune exec examples/emit_source.exe [-- <func> <scheme>]
   Writes <func>_<scheme>.c and <func>_<scheme>.ml into ./generated/. *)

let () =
  let func, scheme =
    if Array.length Sys.argv >= 3 then
      ( Option.get (Oracle.of_name Sys.argv.(1)),
        Option.get (Polyeval.scheme_of_name Sys.argv.(2)) )
    else (Oracle.Exp2, Polyeval.EstrinFma)
  in
  let cfg = Rlibm.Config.mini_for func in
  Printf.printf "generating %s / %s ...\n%!" (Oracle.name func)
    (Polyeval.scheme_name scheme);
  match Pipeline.generate ~cfg ~scheme func with
  | Error msg -> failwith (Diag.Error.to_string msg)
  | Ok g ->
      let base =
        Printf.sprintf "%s_%s" (Oracle.name func)
          (String.map (function '-' -> '_' | c -> c) (Polyeval.scheme_name scheme))
      in
      if not (Sys.file_exists "generated") then Sys.mkdir "generated" 0o755;
      let write path contents =
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
      in
      write
        (Filename.concat "generated" (base ^ ".c"))
        (Codegen.to_c g ~name:("rlibm_" ^ base));
      write
        (Filename.concat "generated" (base ^ ".ml"))
        (Codegen.to_ocaml g ~name:("rlibm_" ^ base));
      print_endline "done."
