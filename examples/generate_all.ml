(* Generate the full library: all six elementary functions, each in the
   four evaluation flavours of the paper (Table 1's grid), verify each one
   exhaustively, and print the resulting Table-1 analogue.

   Run with:  dune exec examples/generate_all.exe
   (The first run computes and persists every pipeline stage; later runs
   load them and are much faster.) *)

let () =
  let t0 = Unix.gettimeofday () in
  Printf.printf "%-7s %-11s %7s %-10s %9s %8s %6s %s\n" "f" "scheme" "pieces"
    "degrees" "specials" "rounds" "ok" "verify";
  let all_ok = ref true in
  List.iter
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      List.iter
        (fun scheme ->
          match Pipeline.verified ~cfg ~scheme func with
          | Error msg ->
              all_ok := false;
              Printf.printf "%-7s %-11s  FAILED: %s\n%!" (Oracle.name func)
                (Polyeval.scheme_name scheme)
                (Diag.Error.to_string msg)
          | Ok (g, rep) ->
              let row = Genlibm.table1_row g in
              let ok =
                rep.Genlibm.wrong34 = 0 && rep.Genlibm.wrong_narrow = 0
              in
              if not ok then all_ok := false;
              Printf.printf "%-7s %-11s %7d %-10s %9d %8s %6s %s [%.0fs]\n%!"
                (Oracle.name func)
                (Polyeval.scheme_name scheme)
                row.Genlibm.n_pieces
                (String.concat "," (List.map string_of_int row.Genlibm.degrees))
                row.Genlibm.n_specials
                (String.concat ","
                   (List.map string_of_int
                      (Array.to_list g.Rlibm.Generate.rounds)))
                (if ok then "yes" else "NO")
                (Format.asprintf "%a" Genlibm.pp_verify_report rep)
                (Unix.gettimeofday () -. t0))
        Polyeval.paper_schemes)
    Oracle.all;
  Printf.printf "\nTotal time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if not !all_ok then exit 1
