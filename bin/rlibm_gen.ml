(* Command-line interface to the staged generation pipeline, oracle,
   cost model and the persistent artifact store.

     rlibm_gen generate --func exp2 --scheme estrin-fma [--ebits 5 --prec 8]
     rlibm_gen stages   --func exp2 --scheme estrin-fma   (per-stage status)
     rlibm_gen warm     [--func log2] [--through poly] [-j N]
                        [--shards S | --shard K/S]   (sharded oracle fill)
     rlibm_gen serve    [--func exp2 --func log2] [--check-scalar] [-j N]
                        [--strict-snapshot]
     rlibm_gen fsck     [--repair] [--max-age SECONDS] [--cache-dir DIR]
     rlibm_gen oracle   --func log2 --x 1.5 [--prec 96]
     rlibm_gen cost     [--degree 5]

   Generation runs through lib/pipeline: each stage (oracle table,
   reduced constraints, LP polynomial, verdict) is a persisted artifact,
   so an interrupted run resumes from the last completed stage and a
   warm re-run performs zero oracle evaluations and zero LP solves.  See README.md for a walkthrough. *)

open Cmdliner

let require_func = function
  | Some f -> f
  | None ->
      Printf.eprintf "missing required option --func\n";
      exit 2

let cfg_for func ~ebits ~prec ~pieces ~table_bits =
  let tin = Softfp.make_fmt ~ebits ~prec in
  {
    (Rlibm.Config.mini_for func) with
    Rlibm.Config.tin;
    pieces =
      (match pieces with
      | Some p -> p
      | None -> (Rlibm.Config.mini_for func).Rlibm.Config.pieces);
    table_bits;
  }

let pieces_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pieces" ] ~doc:"Sub-domains of the reduced domain.")

let table_bits_arg =
  Arg.(
    value & opt int 4
    & info [ "table-bits" ] ~doc:"Log-family reduction table bits.")

(* ---------- generate ---------- *)

let generate_cmd =
  let run func scheme ebits prec pieces table_bits verify jobs cache_dir
      cache_stats log_level trace =
    let func = require_func func in
    Cli.set_jobs jobs;
    Cli.install_diag ~jobs:(Parallel.jobs ()) ~level:log_level ~trace ();
    Cli.set_cache_dir cache_dir;
    (* at_exit so the counters are reported even on the exit-1 paths. *)
    if cache_stats then at_exit (fun () -> Cli.report_cache_stats true);
    let cfg = cfg_for func ~ebits ~prec ~pieces ~table_bits in
    let tin = cfg.Rlibm.Config.tin in
    Printf.printf "generating %s / %s for %d-bit inputs (%d finite values)\n%!"
      (Oracle.name func)
      (Polyeval.scheme_name scheme)
      (Softfp.width tin) (Softfp.count_finite tin);
    let print_generated (g : Rlibm.Generate.generated) =
      Printf.printf "%s\n"
        (Format.asprintf "%a" Genlibm.pp_table1_row (Genlibm.table1_row g));
      Array.iteri
        (fun i (piece : Polyeval.compiled) ->
          Printf.printf "piece %d (degree %d): cost %s\n" i
            piece.Polyeval.degree
            (Format.asprintf "%a" Expr.pp_cost (Polyeval.cost piece));
          Array.iteri
            (fun k c -> Printf.printf "  c%d = %h  (%.17g)\n" k c c)
            piece.Polyeval.data)
        g.Rlibm.Generate.pieces
    in
    if verify then begin
      match Pipeline.verified ~cfg ~scheme func with
      | Error err -> Cli.exit_error err
      | Ok (g, rep) ->
          print_generated g;
          Printf.printf "verify: %s\n"
            (Format.asprintf "%a" Genlibm.pp_verify_report rep);
          if rep.Genlibm.wrong34 > 0 || rep.Genlibm.wrong_narrow > 0 then
            Cli.exit_error
              (Diag.Error.Verification_failed
                 {
                   func = Oracle.name func;
                   scheme = Polyeval.scheme_name scheme;
                   wrong34 = rep.Genlibm.wrong34;
                   wrong_narrow = rep.Genlibm.wrong_narrow;
                 })
    end
    else begin
      match Pipeline.generate ~cfg ~scheme func with
      | Error err -> Cli.exit_error err
      | Ok g -> print_generated g
    end
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ] ~doc:"Exhaustively verify the generated function.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a correctly rounded elementary function through the \
          staged pipeline (resumes from the last completed persisted stage)")
    Term.(
      const run $ Cli.func_arg $ Cli.scheme_arg $ Cli.ebits_arg $ Cli.prec_arg
      $ pieces_arg $ table_bits_arg $ verify $ Cli.jobs_arg
      $ Cli.cache_dir_arg $ Cli.cache_stats_arg $ Cli.log_level_arg
      $ Cli.trace_arg)

(* ---------- stages ---------- *)

let stages_cmd =
  let run func scheme ebits prec pieces table_bits jobs cache_dir cache_stats
      log_level trace =
    let func = require_func func in
    Cli.set_jobs jobs;
    Cli.install_diag ~jobs:(Parallel.jobs ()) ~level:log_level ~trace ();
    Cli.set_cache_dir cache_dir;
    let cfg = cfg_for func ~ebits ~prec ~pieces ~table_bits in
    Printf.printf "pipeline stages for %s / %s (%d-bit inputs):\n%!"
      (Oracle.name func)
      (Polyeval.scheme_name scheme)
      (Softfp.width cfg.Rlibm.Config.tin);
    let events, result = Pipeline.run_stages ~cfg ~scheme func in
    List.iter
      (fun ev -> Printf.printf "  %s\n" (Format.asprintf "%a" Pipeline.pp_event ev))
      events;
    Cli.report_cache_stats cache_stats;
    match result with
    | Error err -> Cli.exit_error err
    | Ok (_, rep) ->
        Printf.printf "verdict: %s\n"
          (Format.asprintf "%a" Genlibm.pp_verify_report rep);
        if rep.Genlibm.wrong34 > 0 || rep.Genlibm.wrong_narrow > 0 then
          Cli.exit_error
            (Diag.Error.Verification_failed
               {
                 func = Oracle.name func;
                 scheme = Polyeval.scheme_name scheme;
                 wrong34 = rep.Genlibm.wrong34;
                 wrong_narrow = rep.Genlibm.wrong_narrow;
               })
  in
  Cmd.v
    (Cmd.info "stages"
       ~doc:
         "Run (or load) every pipeline stage for one function and scheme \
          and print each stage's hit/rebuilt status and timing — the \
          resume / invalidation report")
    Term.(
      const run $ Cli.func_arg $ Cli.scheme_arg $ Cli.ebits_arg $ Cli.prec_arg
      $ pieces_arg $ table_bits_arg $ Cli.jobs_arg
      $ Cli.cache_dir_arg $ Cli.cache_stats_arg $ Cli.log_level_arg
      $ Cli.trace_arg)

(* ---------- warm ---------- *)

let warm_cmd =
  let run func scheme_opt through ebits prec pieces table_bits shards shard
      jobs cache_dir cache_stats log_level trace =
    Cli.set_jobs jobs;
    Cli.install_diag ~jobs:(Parallel.jobs ()) ~level:log_level ~trace ();
    Cli.set_cache_dir cache_dir;
    let through =
      match Pipeline.stage_of_name through with
      | Some s -> s
      | None ->
          Printf.eprintf
            "unknown stage %S (oracle, constraints, poly, verdict)\n"
            through;
          exit 2
    in
    let shards, only_shard = Cli.resolve_shards ~shards ~shard in
    (match (only_shard, through) with
    | Some _, Pipeline.Oracle -> ()
    | Some _, _ ->
        Printf.eprintf
          "--shard K/S warms a single oracle shard; combine it with \
           --through oracle\n";
        exit 2
    | None, _ -> ());
    let funcs = Option.fold ~none:Oracle.all ~some:(fun f -> [ f ]) func in
    let schemes =
      match scheme_opt with Some s -> [ s ] | None -> Polyeval.paper_schemes
    in
    let pairs =
      List.map (fun f -> (f, cfg_for f ~ebits ~prec ~pieces ~table_bits)) funcs
    in
    let tin = Softfp.make_fmt ~ebits ~prec in
    (* Everything warm prints is progress narration, not a product:
       it all goes to stderr so stdout stays machine-parseable (and
       empty) in scripted warm jobs. *)
    Printf.eprintf
      "warming pipeline stages through %s for %d functions over %d-bit \
       inputs (%d finite values each, -j %d%s)\n%!"
      (Pipeline.stage_name through)
      (List.length pairs) (Softfp.width tin)
      (Softfp.count_finite tin) (Parallel.jobs ())
      (match (shards, only_shard) with
      | 1, _ -> ""
      | s, None -> Printf.sprintf ", %d oracle shards" s
      | s, Some k -> Printf.sprintf ", oracle shard %d/%d only" k s);
    let report =
      match Pipeline.warm ~schemes ~through ~shards ?only_shard pairs with
      | Ok report -> report
      | Error err -> Cli.exit_error err
    in
    List.iter
      (fun (f, n) ->
        Printf.eprintf "  %s: %d oracle entries\n%!" (Oracle.name f) n)
      report.Pipeline.wm_entries;
    (* A CI warm job must not exit 0 with a half-filled store: every
       skipped generation is listed and turns the run into a failure. *)
    (match report.Pipeline.wm_failed with
    | [] ->
        Printf.eprintf "warmed %d functions under %s\n"
          (List.length report.Pipeline.wm_entries)
          (Cache.dir ())
    | failed ->
        Printf.eprintf
          "warmed %d functions under %s; %d generations failed (skipped):\n"
          (List.length report.Pipeline.wm_entries)
          (Cache.dir ()) (List.length failed);
        List.iter
          (fun (f, scheme, err) ->
            Printf.eprintf "  %s/%s: %s\n" (Oracle.name f)
              (Polyeval.scheme_name scheme)
              (Diag.Error.to_string err))
          failed);
    (* A warm whose publishes failed cached nothing, however well the
       in-memory generation went: that is a failure of the one job warm
       exists to do. *)
    (match report.Pipeline.wm_store_failed with
    | [] -> ()
    | failed ->
        Printf.eprintf "%d store publishes failed:\n" (List.length failed);
        List.iter
          (fun (f, err) ->
            Printf.eprintf "  %s: %s\n" (Oracle.name f)
              (Diag.Error.to_string err))
          failed);
    Cli.report_cache_stats cache_stats;
    (* Exit through the first failure's typed code so drivers can
       dispatch on it (generation failures first, then publish
       failures). *)
    match (report.Pipeline.wm_failed, report.Pipeline.wm_store_failed) with
    | (_, _, err) :: _, _ -> Cli.exit_error err
    | [], (_, err) :: _ -> Cli.exit_error err
    | [], [] -> ()
  in
  let scheme_opt =
    Arg.(
      value
      & opt (some Cli.scheme_conv) None
      & info [ "scheme"; "s" ]
          ~doc:"Warm only this scheme's polynomial/verdict stages (default: \
                all paper schemes).")
  in
  let through =
    Arg.(
      value & opt string "verdict"
      & info [ "through" ] ~docv:"STAGE"
          ~doc:
            "Deepest stage to pre-fill: oracle, constraints, poly or \
             verdict.  Warming through a shallow stage and \
             re-running generate later exercises the resume path.")
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Pre-fill the persistent artifact store: run the staged pipeline \
          through the requested stage for every function (or --func), so \
          later generate/verify/bench runs start disk-warm.  --shards S \
          splits the oracle stage into resumable content-keyed shard \
          artifacts (kill and re-run, or run several processes against \
          one store); --shard K/S warms a single shard.  Exits non-zero \
          if any generation was skipped.")
    Term.(
      const run $ Cli.func_arg $ scheme_opt $ through $ Cli.ebits_arg
      $ Cli.prec_arg $ pieces_arg $ table_bits_arg $ Cli.shards_arg
      $ Cli.shard_arg $ Cli.jobs_arg $ Cli.cache_dir_arg
      $ Cli.cache_stats_arg $ Cli.log_level_arg $ Cli.trace_arg)

(* ---------- serve ---------- *)

let serve_cmd =
  let run funcs scheme ebits prec pieces table_bits count seed check_scalar
      print_bits strict_snapshot jobs cache_dir cache_stats log_level trace =
    Cli.set_jobs jobs;
    Cli.install_diag ~jobs:(Parallel.jobs ()) ~level:log_level ~trace ();
    Cli.set_cache_dir cache_dir;
    if cache_stats then at_exit (fun () -> Cli.report_cache_stats true);
    let funcs = if funcs = [] then Oracle.all else funcs in
    let specs =
      List.map
        (fun f -> (f, scheme, cfg_for f ~ebits ~prec ~pieces ~table_bits))
        funcs
    in
    (* Job-count-dependent chatter goes to stderr: stdout must be
       bit-identical at every -j (tools/check.sh diffs it). *)
    Printf.eprintf "building snapshot of %d functions (-j %d)\n%!"
      (List.length specs) (Parallel.jobs ());
    match Serve.build ~strict:strict_snapshot specs with
    | Error err -> Cli.exit_error err
    | Ok snap ->
        Printf.printf "snapshot %s (%d functions)\n" (Serve.key snap)
          (List.length (Serve.entries snap));
        List.iter
          (fun (e : Serve.entry) ->
            let func = e.Serve.e_func in
            let tin = e.Serve.e_cfg.Rlibm.Config.tin in
            let inputs =
              match count with
              | Some c -> Genlibm.inputs_sampled tin ~count:c ~seed
              | None -> Genlibm.inputs_exhaustive tin
            in
            let n = Array.length inputs in
            let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
            Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
            Serve.eval_batch_into snap func ~src ~dst;
            let out i = Bigarray.Array1.get dst i in
            let buf = Buffer.create (n * 8) in
            for i = 0 to n - 1 do
              Buffer.add_int64_le buf (Int64.bits_of_float (out i))
            done;
            Printf.printf "%-6s %-11s %d inputs  results-md5 %s\n"
              (Oracle.name func)
              (Polyeval.scheme_name e.Serve.e_scheme)
              n
              (Digest.to_hex (Digest.bytes (Buffer.to_bytes buf)));
            if print_bits then
              Array.iteri
                (fun i x ->
                  Printf.printf "%s %Lx %Lx\n" (Oracle.name func) x
                    (Int64.bits_of_float (out i)))
                inputs;
            if check_scalar then begin
              let bad = ref 0 in
              Array.iteri
                (fun i x ->
                  let s = Genlibm.eval_bits e.Serve.e_impl x in
                  if
                    not
                      (Int64.equal (Int64.bits_of_float s)
                         (Int64.bits_of_float (out i)))
                  then incr bad)
                inputs;
              if !bad > 0 then begin
                Printf.eprintf
                  "%s: %d batched results differ from the eval_bits reference\n"
                  (Oracle.name func) !bad;
                exit 1
              end;
              Printf.printf "%-6s scalar check: %d/%d bit-identical\n"
                (Oracle.name func) n n
            end)
          (Serve.entries snap)
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ]
          ~doc:
            "Evaluate a sampled batch of this many inputs instead of every \
             finite input of the format.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Sampling seed (with $(b,--count)).")
  in
  let check_scalar =
    Arg.(
      value & flag
      & info [ "check-scalar" ]
          ~doc:
            "Re-evaluate every input through the scalar reference path \
             (Genlibm.eval_bits: the polynomial's DAG, not the serving \
             kernel) and fail unless the batched results are \
             bit-identical.")
  in
  let print_bits =
    Arg.(
      value & flag
      & info [ "print-bits" ]
          ~doc:"Print every (input, result) bit pattern pair.")
  in
  let strict_snapshot =
    Arg.(
      value & flag
      & info [ "strict-snapshot" ]
          ~doc:
            "Fail with the typed store error when the persisted snapshot \
             is corrupt or unreadable, instead of the default graceful \
             degradation (regenerate through the pipeline under a \
             diagnostic warning).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Build (or load) an immutable servable snapshot of generated \
          functions and evaluate input batches against it.  A warm \
          artifact store satisfies the snapshot with zero oracle \
          evaluations and zero LP solves; a warm snapshot loads from a \
          single store entry.")
    Term.(
      const run $ Cli.func_list_arg $ Cli.scheme_arg $ Cli.ebits_arg
      $ Cli.prec_arg $ pieces_arg $ table_bits_arg $ count $ seed
      $ check_scalar $ print_bits $ strict_snapshot $ Cli.jobs_arg
      $ Cli.cache_dir_arg $ Cli.cache_stats_arg $ Cli.log_level_arg
      $ Cli.trace_arg)

(* ---------- fsck ---------- *)

let fsck_cmd =
  let run repair max_age cache_dir log_level trace =
    Cli.install_diag ~level:log_level ~trace ();
    Cli.set_cache_dir cache_dir;
    match Cache.fsck ~repair ~max_age () with
    | Error err -> Cli.exit_error err
    | Ok r ->
        Printf.printf "%s\n" (Format.asprintf "%a" Cache.pp_fsck_report r);
        (* Clean store (or just repaired): 0.  Findings the operator
           still has to deal with: 1. *)
        if not (Cache.fsck_clean r || repair) then exit 1
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Delete what the scan flags: stale temp files and aged \
             quarantine files.  (Invalid entries are quarantined by the \
             scan itself, with or without this flag — exactly what a \
             reader would do on load.)")
  in
  let max_age =
    Arg.(
      value & opt float 3600.0
      & info [ "max-age" ] ~docv:"SECONDS"
          ~doc:
            "Age threshold for flagging a live writer's temp files and \
             quarantined $(b,.corrupt-*) files.  A dead writer's temps \
             are flagged regardless of age.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Audit the persistent artifact store: validate every entry's \
          header and checksum against its embedded key (quarantining \
          invalid ones), and report orphaned temp files from crashed \
          writers and aged quarantine files.  Exits 1 when findings \
          remain, 0 when the store is clean or was repaired.")
    Term.(
      const run $ repair $ max_age $ Cli.cache_dir_arg $ Cli.log_level_arg
      $ Cli.trace_arg)

(* ---------- oracle ---------- *)

let oracle_cmd =
  let run func x prec =
    let func = require_func func in
    let q = Rat.of_string x in
    if not (Oracle.domain_ok func q) then begin
      Printf.eprintf "%s is outside the domain of %s\n" x (Oracle.name func);
      exit 1
    end;
    let print_enclosure label (lo, hi) =
      Printf.printf "%s(%s) in [%s,\n            %s] (%s, width <= 2^%d)\n"
        (Oracle.name func) x
        (Rat.to_decimal_string ~digits:30 lo)
        (Rat.to_decimal_string ~digits:30 hi)
        label
        (try
           let w = Rat.sub hi lo in
           if Rat.is_zero w then min_int
           else
             let _, e, _ = Rat.approx w ~bits:1 in
             e + 1
         with _ -> 0)
    in
    (match Oracle.exact_value func q with
    | Some y ->
        Printf.printf "%s(%s) = %s exactly\n" (Oracle.name func) x
          (Rat.to_string y)
    | None ->
        print_enclosure (Printf.sprintf "dyadic, prec %d" prec)
          (Ival.to_rats (Oracle.enclosure func q ~prec));
        (match Oracle.fast_enclosure func q with
        | Some iv -> print_enclosure "fast tier" iv
        | None -> Printf.printf "fast tier: not applicable to this input\n"));
    (* Each result with the tier that decided it: range (overflow /
       underflow shortcut), exact, fast (native first tier) or zivP (the
       dyadic Ziv loop at precision P, a fallback). *)
    let r = Oracle.make_rounder func q in
    List.iter
      (fun (name, fmt) ->
        Printf.printf "  %-10s" name;
        List.iter
          (fun mode ->
            let b, tier = Oracle.decide r ~fmt ~mode in
            Printf.printf " %s=%h[%s]" (Softfp.mode_to_string mode)
              (Softfp.to_float fmt b) (Oracle.tier_name tier))
          (Softfp.RTO :: Softfp.all_standard_modes);
        print_newline ())
      [
        ("binary16", Softfp.binary16);
        ("bfloat16", Softfp.bfloat16);
        ("binary32", Softfp.binary32);
        ("fp34", Softfp.fp34);
      ]
  in
  let x = Arg.(required & opt (some string) None & info [ "x" ] ~doc:"Input: an integer, decimal, or p/q rational.") in
  let prec = Arg.(value & opt int 96 & info [ "prec" ] ~doc:"Enclosure precision in bits.") in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Query the correctly rounded oracle")
    Term.(const run $ Cli.func_arg $ x $ prec)

(* ---------- cost ---------- *)

let cost_cmd =
  let run degree =
    Printf.printf "operation counts and dependence depth at degree %d:\n" degree;
    List.iter
      (fun scheme ->
        match scheme with
        | Polyeval.Knuth when degree < 4 || degree > 6 ->
            Printf.printf "  %-11s n/a (Knuth adaptation needs degree 4-6)\n"
              (Polyeval.scheme_name scheme)
        | _ ->
            let c = Expr.cost (Polyeval.scheme_expr scheme ~degree) in
            Printf.printf "  %-11s %s\n"
              (Polyeval.scheme_name scheme)
              (Format.asprintf "%a" Expr.pp_cost c))
      Polyeval.all_schemes
  in
  let degree = Arg.(value & opt int 5 & info [ "degree"; "d" ] ~doc:"Polynomial degree.") in
  Cmd.v (Cmd.info "cost" ~doc:"Static cost model of the evaluation schemes")
    Term.(const run $ degree)

let () =
  let doc = "RLibm-style correctly rounded function generator with fast polynomial evaluation" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "rlibm_gen" ~doc)
          [
            generate_cmd;
            stages_cmd;
            warm_cmd;
            serve_cmd;
            fsck_cmd;
            oracle_cmd;
            cost_cmd;
          ]))
