(* Tests for the staged artifact pipeline: the key invalidation graph
   (each knob orphans exactly the downstream stages), stage-level
   hit/rebuild behaviour, and the resume guarantee — a run restarted
   after the shallow stages completed rebuilds only the deep stages and
   still produces bit-identical output at every job count. *)

(* Run [f] against a fresh store directory, removed afterwards. *)
let in_fresh_dir f = Test_tmp.with_store "rlibm-pipeline-test-" f

let tiny_cfg = Test_tmp.tiny_cfg

(* The function's observable artifacts as exact bits: coefficients,
   degrees and the special table. *)
let fingerprint (g : Rlibm.Generate.generated) =
  let coeffs =
    Array.to_list g.Rlibm.Generate.pieces
    |> List.concat_map (fun (p : Polyeval.compiled) ->
           Array.to_list (Array.map Int64.bits_of_float p.Polyeval.data))
  in
  let specials =
    Hashtbl.fold
      (fun x v acc -> (x, Int64.bits_of_float v) :: acc)
      g.Rlibm.Generate.specials []
    |> List.sort compare
  in
  (coeffs, Array.to_list g.Rlibm.Generate.degrees, specials)

(* One full pipeline pass from a cold in-process state (the disk store is
   whatever the test arranged): per-stage statuses plus the output
   fingerprint and verdict. *)
let run_pass ?(scheme = Polyeval.Estrin) ?(func = Oracle.Exp2)
    ?(cfg = tiny_cfg) () =
  Rlibm.Constraints.clear_memory_cache ();
  let events, result = Pipeline.run_stages ~cfg ~scheme func in
  let statuses =
    List.map (fun e -> (e.Pipeline.ev_stage, e.Pipeline.ev_status)) events
  in
  match result with
  | Error err ->
      Alcotest.failf "generation failed: %s" (Diag.Error.to_string err)
  | Ok (g, rep) -> (statuses, fingerprint g, rep)

let warm_ok ?schemes ?through ?shards ?only_shard pairs =
  match Pipeline.warm ?schemes ?through ?shards ?only_shard pairs with
  | Ok report -> report
  | Error err -> Alcotest.failf "warm failed: %s" (Diag.Error.to_string err)

(* Unwrap a Result-typed oracle stage in tests that arrange valid shard
   parameters. *)
let oracle_ok ?shards ?only_shard ~cfg func =
  match Pipeline.oracle_stage ?shards ?only_shard ~cfg func with
  | Ok t -> t
  | Error err ->
      Alcotest.failf "oracle stage failed: %s" (Diag.Error.to_string err)

let status_t =
  Alcotest.(
    list
      (pair
         (testable
            (Fmt.of_to_string Pipeline.stage_name)
            (fun a b -> a = b))
         (testable
            (Fmt.of_to_string (function
              | Pipeline.Hit -> "hit"
              | Pipeline.Rebuilt -> "rebuilt"))
            (fun a b -> a = b))))

let all_of st = List.map (fun s -> (s, st)) Pipeline.all_stages

(* ---------- the key invalidation graph ---------- *)

let test_keys () =
  let cfg = tiny_cfg and f = Oracle.Exp2 and scheme = Polyeval.Estrin in
  let keys c =
    ( Pipeline.oracle_key ~cfg:c f,
      Pipeline.constraints_key ~cfg:c f,
      Pipeline.poly_key ~cfg:c ~scheme f,
      Pipeline.verdict_key ~cfg:c ~scheme f )
  in
  let o0, c0, p0, v0 = keys cfg in
  (* The surviving keys are frozen byte for byte, including the ".1"
     that the rounding-interval artifact's layout version used to
     contribute: stored entries stay reachable. *)
  Alcotest.(check string) "constraints key frozen"
    "exp2-in4.7-out4.9-p1-tb3-cns-v1.1" c0;
  Alcotest.(check string) "poly key frozen"
    "exp2-in4.7-out4.9-p1-tb3-estrin-d2.6-r20-sp40-ply-v3.1.1" p0;
  (* pieces: constraints and below *)
  let o, c, p, v =
    keys { cfg with Rlibm.Config.pieces = cfg.Rlibm.Config.pieces + 1 }
  in
  Alcotest.(check bool) "pieces keeps oracle" true (o = o0);
  Alcotest.(check bool) "pieces invalidates constraints+" true
    (c <> c0 && p <> p0 && v <> v0);
  (* table_bits: constraints and below *)
  let o, c, p, v =
    keys { cfg with Rlibm.Config.table_bits = cfg.Rlibm.Config.table_bits + 1 }
  in
  Alcotest.(check bool) "table_bits keeps oracle" true (o = o0);
  Alcotest.(check bool) "table_bits invalidates constraints+" true
    (c <> c0 && p <> p0 && v <> v0);
  (* degree/round/special budgets: polynomial and below *)
  let o, c, p, v =
    keys { cfg with Rlibm.Config.max_rounds = cfg.Rlibm.Config.max_rounds + 1 }
  in
  Alcotest.(check bool) "budgets keep oracle+constraints" true
    (o = o0 && c = c0);
  Alcotest.(check bool) "budgets invalidate poly+" true (p <> p0 && v <> v0);
  (* scheme: polynomial and below *)
  Alcotest.(check bool) "scheme invalidates poly+" true
    (Pipeline.poly_key ~cfg ~scheme:Polyeval.Horner f <> p0
    && Pipeline.verdict_key ~cfg ~scheme:Polyeval.Horner f <> v0);
  (* narrow: verdict only *)
  Alcotest.(check bool) "narrow invalidates only the verdict" true
    (Pipeline.verdict_key ~narrow:false ~cfg ~scheme f <> v0);
  (* input format: everything *)
  let o, c, p, v =
    keys { cfg with Rlibm.Config.tin = Softfp.make_fmt ~ebits:4 ~prec:8 }
  in
  Alcotest.(check bool) "format invalidates everything" true
    (o <> o0 && c <> c0 && p <> p0 && v <> v0);
  (* every stage key is a distinct store entry *)
  Alcotest.(check int) "four distinct keys" 4
    (List.length (List.sort_uniq compare [ o0; c0; p0; v0 ]))

(* ---------- stage invalidation: exactly the affected stages rebuild ---------- *)

let test_stage_invalidation () =
  in_fresh_dir (fun _d ->
      let cold_st, cold_fp, cold_rep = run_pass () in
      Alcotest.check status_t "cold run rebuilds every stage"
        (all_of Pipeline.Rebuilt) cold_st;
      let warm_st, warm_fp, warm_rep = run_pass () in
      Alcotest.check status_t "warm run hits every stage"
        (all_of Pipeline.Hit) warm_st;
      Alcotest.(check bool) "warm output bit-identical" true
        (warm_fp = cold_fp && warm_rep = cold_rep);
      (* pieces change: the oracle survives, the rest rebuild *)
      let cfg2 = { tiny_cfg with Rlibm.Config.pieces = 2 } in
      let st2, _, _ = run_pass ~cfg:cfg2 () in
      Alcotest.check status_t "pieces change rebuilds constraints+"
        Pipeline.
          [
            (Oracle, Hit);
            (Constraints, Rebuilt);
            (Poly, Rebuilt);
            (Verdict, Rebuilt);
          ]
        st2;
      (* scheme change: everything up to constraints survives *)
      let st3, _, _ = run_pass ~scheme:Polyeval.HornerFma () in
      Alcotest.check status_t "scheme change rebuilds poly+"
        Pipeline.
          [
            (Oracle, Hit);
            (Constraints, Hit);
            (Poly, Rebuilt);
            (Verdict, Rebuilt);
          ]
        st3;
      (* and the original configuration still hits everywhere *)
      let again_st, again_fp, _ = run_pass () in
      Alcotest.check status_t "original knobs still fully warm"
        (all_of Pipeline.Hit) again_st;
      Alcotest.(check bool) "original output unchanged" true
        (again_fp = cold_fp))

(* ---------- resume: shallow stages persisted, deep stages rebuilt ---------- *)

let test_resume_bit_identical () =
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      (* The reference output, from an uninterrupted cold run. *)
      let reference =
        in_fresh_dir (fun _d ->
            Parallel.set_jobs 1;
            let _, fp, rep = run_pass () in
            (fp, rep))
      in
      List.iter
        (fun jobs ->
          in_fresh_dir (fun _d ->
              Parallel.set_jobs jobs;
              (* "Interrupted" run: only stage 1 completed. *)
              Rlibm.Constraints.clear_memory_cache ();
              let report =
                warm_ok ~through:Pipeline.Oracle
                  [ (Oracle.Exp2, tiny_cfg) ]
              in
              Alcotest.(check int) "one pair warmed" 1
                (List.length report.Pipeline.wm_entries);
              Alcotest.(check int) "nothing skipped" 0
                (List.length report.Pipeline.wm_failed);
              (* Resume: stage 1 loads, stages 2-4 rebuild. *)
              let st, fp, rep = run_pass () in
              Alcotest.check status_t
                (Printf.sprintf "resume at -j %d rebuilds stages 2+" jobs)
                Pipeline.
                  [
                    (Oracle, Hit);
                    (Constraints, Rebuilt);
                    (Poly, Rebuilt);
                    (Verdict, Rebuilt);
                  ]
                st;
              Alcotest.(check bool)
                (Printf.sprintf "resumed output at -j %d = cold -j 1" jobs)
                true
                ((fp, rep) = reference)))
        [ 1; 4 ])

(* ---------- oracle shards ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let shard_stats () =
  List.assoc_opt "oracle-shard" (Cache.stats_by_kind ())

(* The shard grid is a fixed partition of the input universe: contiguous,
   complete, in order — and a pure function of (n, shards), so the job
   count cannot move a shard boundary.  Keys are distinct per index and
   never collide with the whole-table key. *)
let test_shard_grid () =
  List.iter
    (fun (n, shards) ->
      let ranges = List.init shards (Pipeline.shard_range ~n ~shards) in
      let lo0, _ = List.hd ranges in
      Alcotest.(check int) "starts at 0" 0 lo0;
      let rec chained = function
        | [] | [ _ ] -> true
        | (_, hi) :: ((lo, _) :: _ as rest) -> hi = lo && chained rest
      in
      Alcotest.(check bool)
        (Printf.sprintf "contiguous n=%d s=%d" n shards)
        true (chained ranges);
      let _, hil = List.nth ranges (shards - 1) in
      Alcotest.(check int) "ends at n" n hil)
    [ (7936, 1); (7936, 4); (7936, 7); (10, 16); (0, 3) ];
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved)
    (fun () ->
      let grid () = List.init 4 (Pipeline.shard_range ~n:7936 ~shards:4) in
      Parallel.set_jobs 1;
      let g1 = grid () in
      Parallel.set_jobs 4;
      Alcotest.(check bool) "grid independent of -j" true (g1 = grid ()));
  let key i =
    Pipeline.oracle_shard_key ~cfg:tiny_cfg ~shards:4 ~index:i Oracle.Exp2
  in
  let keys = List.init 4 key in
  Alcotest.(check int) "four distinct shard keys" 4
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "distinct from the whole-table key" false
    (List.mem (Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2) keys);
  Alcotest.(check bool) "shard count is part of the key" true
    (key 0 <> Pipeline.oracle_shard_key ~cfg:tiny_cfg ~shards:8 ~index:0
                 Oracle.Exp2)

(* A sharded cold run must be indistinguishable from an unsharded one
   downstream: the republished whole-table artifact byte-identical, and
   every later stage hitting the very same keys with the same content —
   at -j 1 and -j 4. *)
let test_sharded_bit_identical () =
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      let okey = Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2 in
      let reference =
        in_fresh_dir (fun _d ->
            Parallel.set_jobs 1;
            Rlibm.Constraints.clear_memory_cache ();
            let _, fp, rep = run_pass () in
            (read_file (Cache.path_of_key okey), fp, rep))
      in
      List.iter
        (fun jobs ->
          in_fresh_dir (fun _d ->
              Parallel.set_jobs jobs;
              Rlibm.Constraints.clear_memory_cache ();
              let _ = oracle_ok ~shards:5 ~cfg:tiny_cfg Oracle.Exp2 in
              let ref_bytes, ref_fp, ref_rep = reference in
              Alcotest.(check bool)
                (Printf.sprintf "whole-table artifact bytes at -j %d" jobs)
                true
                (read_file (Cache.path_of_key okey) = ref_bytes);
              (* Downstream stages consume the republished table: the
                 oracle stage must hit, and output stays bit-identical. *)
              let st, fp, rep = run_pass () in
              Alcotest.(check bool)
                (Printf.sprintf "oracle hits after sharded warm -j %d" jobs)
                true
                (List.assoc Pipeline.Oracle st = Pipeline.Hit);
              Alcotest.(check bool)
                (Printf.sprintf "downstream bit-identical -j %d" jobs)
                true
                (fp = ref_fp && rep = ref_rep)))
        [ 1; 4 ])

(* Cooperative fill: shards published by a killed (or distributed)
   warmer are loaded, never recomputed.  Two single-shard invocations
   stand in for the interrupted run; the resuming full run must load
   exactly those two shards and compute exactly the other two. *)
let test_shard_resume () =
  in_fresh_dir (fun _d ->
      List.iter
        (fun k ->
          Rlibm.Constraints.clear_memory_cache ();
          ignore
            (oracle_ok ~shards:4 ~only_shard:k ~cfg:tiny_cfg Oracle.Exp2
              : (int64, int64) Hashtbl.t))
        [ 0; 1 ];
      (* Resume. *)
      Rlibm.Constraints.clear_memory_cache ();
      Cache.reset_stats ();
      let t = oracle_ok ~shards:4 ~cfg:tiny_cfg Oracle.Exp2 in
      (match shard_stats () with
      | None -> Alcotest.fail "no oracle-shard store traffic on resume"
      | Some s ->
          Alcotest.(check int) "published shards loaded, not recomputed" 2
            s.Cache.hits;
          Alcotest.(check int) "missing shards computed once" 2
            s.Cache.misses);
      (* The assembled table equals an unsharded run's. *)
      let unsharded =
        in_fresh_dir (fun _d ->
            Rlibm.Constraints.clear_memory_cache ();
            oracle_ok ~cfg:tiny_cfg Oracle.Exp2)
      in
      let sorted tbl =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
      in
      Alcotest.(check bool) "merged table = unsharded table" true
        (sorted t = sorted unsharded);
      (* Fully warm: the republished whole table satisfies every shard
         with zero store traffic and zero Ziv loops. *)
      Rlibm.Constraints.clear_memory_cache ();
      Cache.reset_stats ();
      ignore
        (oracle_ok ~shards:4 ~cfg:tiny_cfg Oracle.Exp2
          : (int64, int64) Hashtbl.t);
      (match shard_stats () with
      | None -> ()
      | Some s ->
          Alcotest.(check int) "warm run loads no shard" 0 s.Cache.hits;
          Alcotest.(check int) "warm run computes no shard" 0 s.Cache.misses);
      (* Bad shard parameters are rejected with a typed error, not an
         exception. *)
      (match Pipeline.oracle_stage ~shards:0 ~cfg:tiny_cfg Oracle.Exp2 with
      | Error (Diag.Error.Shard_range { count = 0; _ }) -> ()
      | Ok _ -> Alcotest.fail "shards < 1 accepted"
      | Error e ->
          Alcotest.failf "expected Shard_range, got %s"
            (Diag.Error.to_string e));
      match
        Pipeline.oracle_stage ~shards:4 ~only_shard:4 ~cfg:tiny_cfg Oracle.Exp2
      with
      | Error (Diag.Error.Shard_range { index = 4; count = 4 }) -> ()
      | Ok _ -> Alcotest.fail "out-of-range only_shard accepted"
      | Error e ->
          Alcotest.failf "expected Shard_range, got %s"
            (Diag.Error.to_string e))

(* Two warmer *processes* racing on one store directory: the O_EXCL-temp
   publish protocol makes the race benign (identical content, atomic
   rename), and the store must end up byte-identical to a lone
   unsharded run's.  [Unix.fork] (and everything built on it, like
   [create_process]) is forbidden once any domain has ever been spawned
   in this process, so the racers are launched through [Sys.command]
   (C-level system(3)) against the built CLI — which also exercises the
   --shards flag end to end. *)
let rlibm_gen_exe =
  (* Tests run with cwd = _build/default/test; the binary is a declared
     dependency in test/dune. *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "rlibm_gen.exe")

let test_shard_concurrent () =
  if not (Sys.file_exists rlibm_gen_exe) then
    Alcotest.failf "rlibm_gen binary not found at %s" rlibm_gen_exe;
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      Parallel.set_jobs 1;
      let okey = Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2 in
      let ref_bytes =
        in_fresh_dir (fun _d ->
            Rlibm.Constraints.clear_memory_cache ();
            let _, _, _ = run_pass () in
            read_file (Cache.path_of_key okey))
      in
      in_fresh_dir (fun dir ->
          let warmer log =
            Printf.sprintf
              "%s warm --func exp2 --through oracle --shards 4 --ebits 4 \
               --prec 7 --table-bits 3 -j 1 --cache-dir %s > %s 2>&1"
              (Filename.quote rlibm_gen_exe) (Filename.quote dir)
              (Filename.quote (Filename.concat dir log))
          in
          let cmd =
            Printf.sprintf "%s & p1=$!; %s & p2=$!; wait $p1 && wait $p2"
              (warmer "warmer1.log") (warmer "warmer2.log")
          in
          let rc = Sys.command cmd in
          if rc <> 0 then begin
            List.iter
              (fun log ->
                let p = Filename.concat dir log in
                if Sys.file_exists p then prerr_string (read_file p))
              [ "warmer1.log"; "warmer2.log" ];
            Alcotest.failf "concurrent warmers exited with %d" rc
          end;
          Alcotest.(check bool)
            "racing warmers leave the unsharded artifact bytes" true
            (read_file (Cache.path_of_key okey) = ref_bytes)))

(* Out-of-range generation knobs exit through the typed Bad_config code
   (2), not an uncaught Invalid_argument (125), on every subcommand that
   builds a config, and before anything touches the store.  Each value
   is rejected before any table or format is allocated. *)
let test_bad_knobs_rejected () =
  if not (Sys.file_exists rlibm_gen_exe) then
    Alcotest.failf "rlibm_gen binary not found at %s" rlibm_gen_exe;
  in_fresh_dir (fun dir ->
      let run args =
        Sys.command
          (Printf.sprintf "%s %s --cache-dir %s > %s 2>&1"
             (Filename.quote rlibm_gen_exe) args (Filename.quote dir)
             (Filename.quote (dir ^ ".log")))
      in
      List.iter
        (fun args ->
          Alcotest.(check int) args 2 (run args);
          Alcotest.(check bool)
            (args ^ ": typed message")
            true
            (String.starts_with ~prefix:"rlibm: "
               (In_channel.with_open_bin (dir ^ ".log") In_channel.input_all)))
        (List.map
           (fun knob -> "generate --func log " ^ knob)
           [
             "--pieces=0"; "--pieces=-2"; "--table-bits=-1"; "--table-bits=60";
             "--ebits=0"; "--prec=1"; "--ebits=15 --prec=48";
           ]
        @ [
            "stages --func log --pieces=0";
            "warm --table-bits=-1";
            "serve --func exp2 --ebits=0";
          ]
        (* a valid format whose values are not all doubles, and one too
           wide to enumerate *)
        @ List.concat_map
            (fun fmt ->
              List.map
                (fun cmd -> cmd ^ fmt)
                [
                  "generate --func log2"; "stages --func log2";
                  "warm --func log2"; "serve --func log2";
                ])
            [ " --ebits 12 --prec 4"; " --ebits 8 --prec 24" ]);
      Sys.remove (dir ^ ".log");
      Alcotest.(check (array string)) "store untouched" [||] (Sys.readdir dir))

(* warm must report skipped generations, not swallow them: a config
   whose degree search cannot succeed fails the polynomial stage for
   every scheme, and each failure lands in wm_failed. *)
let test_warm_reports_failures () =
  in_fresh_dir (fun _d ->
      Rlibm.Constraints.clear_memory_cache ();
      let doomed =
        {
          tiny_cfg with
          Rlibm.Config.min_degree = 0;
          max_degree = 0;
          max_rounds = 1;
          max_specials = 0;
        }
      in
      let report =
        warm_ok ~schemes:[ Polyeval.Estrin ] [ (Oracle.Exp2, doomed) ]
      in
      Alcotest.(check int) "entry still warmed through the oracle" 1
        (List.length report.Pipeline.wm_entries);
      (match report.Pipeline.wm_failed with
      | [ (Oracle.Exp2, Polyeval.Estrin, err) ] ->
          (* a zeroed budget must surface as a typed generation error
             (infeasible at the only degree tried, or out of budget) *)
          (match err with
          | Diag.Error.Budget_exhausted { func; scheme; max_degree; _ } ->
              Alcotest.(check string) "failure func" "exp2" func;
              Alcotest.(check string) "failure scheme" "estrin" scheme;
              Alcotest.(check int) "failure degree bound" 0 max_degree
          | Diag.Error.Lp_infeasible { func; scheme; degree; _ } ->
              Alcotest.(check string) "failure func" "exp2" func;
              Alcotest.(check string) "failure scheme" "estrin" scheme;
              Alcotest.(check int) "failure degree bound" 0 degree
          | e ->
              Alcotest.failf "expected a typed generation failure, got %s"
                (Diag.Error.to_string e));
          Alcotest.(check bool) "failure message non-empty" true
            (Diag.Error.to_string err <> "")
      | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
      (* A healthy config reports no failures. *)
      Rlibm.Constraints.clear_memory_cache ();
      let ok =
        warm_ok ~schemes:[ Polyeval.Estrin ] [ (Oracle.Exp2, tiny_cfg) ]
      in
      Alcotest.(check int) "healthy warm skips nothing" 0
        (List.length ok.Pipeline.wm_failed))

(* ---------- round-1 LP seeds shared across schemes ---------- *)

let seed_funcs = [ Oracle.Exp2; Oracle.Log ]
let seed_specs = List.map (fun f -> (f, Polyeval.EstrinFma, tiny_cfg)) seed_funcs

let verified_ok ~scheme func =
  match Pipeline.verified ~cfg:tiny_cfg ~scheme func with
  | Ok _ -> ()
  | Error err ->
      Alcotest.failf "%s/%s failed: %s" (Oracle.name func)
        (Polyeval.scheme_name scheme) (Diag.Error.to_string err)

let count_events name evs =
  List.length (List.filter (fun ev -> ev.Diag.ev_name = name) evs)

let seed_statuses evs =
  List.filter_map
    (fun ev ->
      if ev.Diag.ev_name = "lp.seed" then
        List.assoc_opt "status" ev.Diag.ev_fields
      else None)
    evs

(* The estrin-fma generation's store artifacts, as bytes: both
   functions' poly and verdict entries and the served snapshot. *)
let second_scheme_artifacts () =
  (match Serve.build seed_specs with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "serve build: %s" (Diag.Error.to_string err));
  List.concat_map
    (fun f ->
      [
        Pipeline.poly_key ~cfg:tiny_cfg ~scheme:Polyeval.EstrinFma f;
        Pipeline.verdict_key ~cfg:tiny_cfg ~scheme:Polyeval.EstrinFma f;
      ])
    seed_funcs
  @ [ Serve.snapshot_key seed_specs ]
  |> List.map (fun k -> (k, read_file (Cache.path_of_key k)))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let lp_seed_files d =
  Sys.readdir d |> Array.to_list
  |> List.filter (fun name ->
         contains ~sub:"-lps-" name && not (contains ~sub:".corrupt-" name))
  |> List.sort compare

(* The first scheme of a function publishes its round-1 LP solves; the
   second scheme loads every one of them, solves no LP at all, and its
   artifacts are byte-identical to a fresh-store run of that scheme
   alone — at -j 1 and -j 4. *)
let test_lp_seed_shared () =
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      let reference =
        in_fresh_dir (fun _d ->
            Parallel.set_jobs 1;
            Rlibm.Constraints.clear_memory_cache ();
            List.iter (verified_ok ~scheme:Polyeval.EstrinFma) seed_funcs;
            second_scheme_artifacts ())
      in
      List.iter
        (fun jobs ->
          in_fresh_dir (fun _d ->
              Parallel.set_jobs jobs;
              Rlibm.Constraints.clear_memory_cache ();
              let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
              Diag.with_sinks [ sink ] (fun () ->
                  List.iter (verified_ok ~scheme:Polyeval.Horner) seed_funcs);
              let evs = drain () in
              (* the sink sees LP solves when there are any *)
              Alcotest.(check bool)
                (Printf.sprintf "-j %d: first scheme solves LPs" jobs)
                true
                (count_events "lp.solved" evs > 0);
              let first = seed_statuses evs in
              Alcotest.(check bool)
                (Printf.sprintf "-j %d: first scheme solves every seed" jobs)
                true
                (first <> []
                && List.for_all (( = ) (Diag.String "rebuilt")) first);
              Cache.reset_stats ();
              let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
              Diag.with_sinks [ sink ] (fun () ->
                  List.iter (verified_ok ~scheme:Polyeval.EstrinFma) seed_funcs);
              let evs = drain () in
              Alcotest.(check int)
                (Printf.sprintf "-j %d: second scheme solves no LP" jobs)
                0
                (count_events "lp.solved" evs);
              let second = seed_statuses evs in
              Alcotest.(check bool)
                (Printf.sprintf "-j %d: second scheme only hits seeds" jobs)
                true
                (second <> []
                && List.for_all (( = ) (Diag.String "hit")) second);
              (match List.assoc_opt "lp-seed" (Cache.stats_by_kind ()) with
              | Some st ->
                  Alcotest.(check int) "no lp-seed miss" 0 st.Cache.misses;
                  Alcotest.(check int) "one hit per seed event"
                    (List.length second) st.Cache.hits
              | None -> Alcotest.fail "no lp-seed store traffic");
              Alcotest.(check (list (pair string string)))
                (Printf.sprintf
                   "-j %d: poly, verdict, snapshot bytes = fresh-store run"
                   jobs)
                reference
                (second_scheme_artifacts ());
              (* and the seeded polynomials are the ones an unseeded
                 Generate.solve finds *)
              List.iter
                (fun func ->
                  let cfg = tiny_cfg and scheme = Polyeval.EstrinFma in
                  let built = Pipeline.constraints_stage ~cfg func in
                  let oracle =
                    Rlibm.Constraints.oracle_table ~func
                      ~tin:cfg.Rlibm.Config.tin ~tout:(Rlibm.Config.tout cfg)
                  in
                  match
                    ( Rlibm.Generate.solve ~cfg ~scheme ~func ~built ~oracle (),
                      Pipeline.generate ~cfg ~scheme func )
                  with
                  | Ok sv, Ok g ->
                      Alcotest.(check bool)
                        (Printf.sprintf "-j %d: %s seeded = unseeded" jobs
                           (Oracle.name func))
                        true
                        (fingerprint
                           (Rlibm.Generate.assemble ~cfg ~scheme ~func sv)
                        = fingerprint g)
                  | _ -> Alcotest.fail "generation failed")
                seed_funcs))
        [ 1; 4 ])

(* A corrupted seed is quarantined, re-solved and republished, and the
   polynomial built on it is the fresh-store one. *)
let test_lp_seed_corrupt () =
  let fresh =
    in_fresh_dir (fun _d ->
        let _, fp, rep = run_pass ~scheme:Polyeval.EstrinFma () in
        (fp, rep))
  in
  in_fresh_dir (fun d ->
      ignore (run_pass ~scheme:Polyeval.Horner ());
      let seeds = lp_seed_files d in
      Alcotest.(check bool) "horner published seeds" true (seeds <> []);
      let original = List.map (fun f -> read_file (Filename.concat d f)) seeds in
      List.iter
        (fun f ->
          let path = Filename.concat d f in
          let bytes = Bytes.of_string (read_file path) in
          let i = Bytes.length bytes - 1 in
          Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc bytes;
          close_out oc)
        seeds;
      Cache.reset_stats ();
      let sink, drain = Diag.memory_sink ~min_level:Diag.Info () in
      let _, fp, rep =
        Diag.with_sinks [ sink ] (fun () ->
            run_pass ~scheme:Polyeval.EstrinFma ())
      in
      (match List.assoc_opt "lp-seed" (Cache.stats_by_kind ()) with
      | Some st ->
          Alcotest.(check int) "every corrupt seed rejected"
            (List.length seeds) st.Cache.corrupt_rejected
      | None -> Alcotest.fail "no lp-seed store traffic");
      Alcotest.(check bool) "corrupt seeds rebuilt" true
        (List.for_all (( = ) (Diag.String "rebuilt")) (seed_statuses (drain ())));
      Alcotest.(check int) "each quarantined aside" (List.length seeds)
        (Sys.readdir d |> Array.to_list
        |> List.filter (fun n ->
               contains ~sub:"-lps-" n && contains ~sub:".corrupt-" n)
        |> List.length);
      Alcotest.(check bool) "republished seeds = originals" true
        (List.map (fun f -> read_file (Filename.concat d f)) seeds = original);
      Alcotest.(check bool) "same polynomial and verdict as a fresh store"
        true
        ((fp, rep) = fresh))

(* The generation loop reports on the Diag stream only.  A cold
   generate + verify of exp2 under Estrin+FMA (then exp10 under Estrin,
   whose degree-4 round 1 misses inputs and sends the loop into tilted
   re-solves) under a Debug sink shows the loop's typed events in
   pipeline order, every [gen.round] carries its coordinates, and the
   sink changes no artifact bit: the fingerprints and verdicts equal a
   sink-free run's at -j 1 and -j 4. *)
let test_loop_events () =
  let saved_jobs = Parallel.jobs () in
  let cold_run () =
    in_fresh_dir (fun _d ->
        Rlibm.Constraints.clear_memory_cache ();
        List.map
          (fun (func, scheme) ->
            match Pipeline.verified ~cfg:tiny_cfg ~scheme func with
            | Ok (g, rep) -> (fingerprint g, rep)
            | Error err ->
                Alcotest.failf "%s: %s" (Oracle.name func)
                  (Diag.Error.to_string err))
          [ (Oracle.Exp2, Polyeval.EstrinFma); (Oracle.Exp10, Polyeval.Estrin) ])
  in
  (* Each record's name, with the stage spelled out on both ends of a
     stage span ([stage.end] names its stage only through the span id). *)
  let labels evs =
    let stage_of_span = Hashtbl.create 16 in
    List.map
      (fun (ev : Diag.ev) ->
        match (ev.Diag.ev_name, ev.Diag.ev_span) with
        | "stage.begin", Some id ->
            let stage =
              match List.assoc_opt "stage" ev.Diag.ev_fields with
              | Some (Diag.String st) -> st
              | _ -> "?"
            in
            Hashtbl.replace stage_of_span id stage;
            "stage.begin " ^ stage
        | "stage.end", Some id ->
            "stage.end "
            ^ Option.value ~default:"?" (Hashtbl.find_opt stage_of_span id)
        | name, _ -> name)
      evs
  in
  let rec subsequence want got =
    match (want, got) with
    | [], _ -> true
    | _, [] -> false
    | w :: ws, g :: gs -> subsequence (if w = g then ws else want) gs
  in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      Parallel.set_jobs 1;
      let reference = Diag.with_sinks [] cold_run in
      List.iter
        (fun jobs ->
          Parallel.set_jobs jobs;
          let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
          let traced = Diag.with_sinks [ sink ] cold_run in
          let evs = drain () in
          Alcotest.(check bool)
            (Printf.sprintf
               "-j %d: oracle .. gen.degree .. gen.round .. verdict" jobs)
            true
            (subsequence
               [
                 "stage.begin oracle"; "gen.degree"; "gen.round";
                 "stage.end verdict";
               ]
               (labels evs));
          let rounds =
            List.filter (fun ev -> ev.Diag.ev_name = "gen.round") evs
          in
          List.iter
            (fun (ev : Diag.ev) ->
              List.iter
                (fun field ->
                  Alcotest.(check bool)
                    (Printf.sprintf "gen.round carries %s" field)
                    true
                    (List.mem_assoc field ev.Diag.ev_fields))
                [ "degree"; "round"; "outcome" ];
              Alcotest.(check bool) "gen.round outcome" true
                (List.mem
                   (List.assoc "outcome" ev.Diag.ev_fields)
                   [ Diag.String "infeasible"; Diag.String "violated" ]))
            rounds;
          Alcotest.(check (list string))
            "both round outcomes seen" [ "infeasible"; "violated" ]
            (List.sort_uniq compare
               (List.filter_map
                  (fun (ev : Diag.ev) ->
                    match List.assoc_opt "outcome" ev.Diag.ev_fields with
                    | Some (Diag.String o) -> Some o
                    | _ -> None)
                  rounds));
          Alcotest.(check bool)
            (Printf.sprintf "-j %d: traced run = untraced reference" jobs)
            true (traced = reference);
          if jobs > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "-j %d: untraced run = untraced reference" jobs)
              true
              (Diag.with_sinks [] cold_run = reference))
        [ 1; 4 ])

(* ---------- the oracle table has one writer ---------- *)

(* Verification only reads the oracle table: after a verified mini exp2
   the shared table still holds exactly the covered (finite,
   non-shortcut) inputs, and warming through the verdict reports the
   count that warming through the oracle stage does.  Persistence is off
   so the verdict stage really verifies. *)
let test_verify_reads_oracle () =
  Cache.with_persistence false (fun () ->
      let func = Oracle.Exp2 in
      let cfg = Rlibm.Config.mini_for func in
      let tin = cfg.Rlibm.Config.tin in
      let family = Rlibm.Generate.family ~cfg func in
      let covered =
        Genlibm.inputs_exhaustive tin
        |> Array.to_list
        |> List.filter (fun x ->
               family.Rlibm.Reduction.shortcut (Softfp.to_float tin x) = None)
        |> List.sort compare
      in
      Alcotest.(check int) "mini exp2 covers 4428 inputs" 4428
        (List.length covered);
      Rlibm.Constraints.clear_memory_cache ();
      (match Pipeline.verified ~cfg ~scheme:Polyeval.Horner func with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "exp2/horner: %s" (Diag.Error.to_string err));
      let table =
        Rlibm.Constraints.oracle_table ~func ~tin ~tout:(Rlibm.Config.tout cfg)
      in
      Alcotest.(check (list int64)) "table keys = covered inputs" covered
        (List.sort compare (Hashtbl.fold (fun x _ acc -> x :: acc) table []));
      let entries through =
        Rlibm.Constraints.clear_memory_cache ();
        (warm_ok ~schemes:[ Polyeval.Horner ] ~through [ (func, cfg) ])
          .Pipeline.wm_entries
        |> List.map snd
      in
      Alcotest.(check (list int)) "warm through verdict = through oracle"
        (entries Pipeline.Oracle) (entries Pipeline.Verdict))

let suite =
  [
    ("key invalidation graph", `Quick, test_keys);
    ("shard grid and keys", `Quick, test_shard_grid);
    ("stage invalidation rebuilds exactly downstream", `Slow,
     test_stage_invalidation);
    ("resume is bit-identical at -j 1 and -j 4", `Slow,
     test_resume_bit_identical);
    ("sharded run bit-identical to unsharded", `Slow,
     test_sharded_bit_identical);
    ("interrupted sharded warm resumes without recompute", `Slow,
     test_shard_resume);
    ("concurrent warmers fill one store cooperatively", `Slow,
     test_shard_concurrent);
    ("out-of-range knobs exit 2 on every subcommand", `Quick,
     test_bad_knobs_rejected);
    ("warm reports skipped generations", `Slow, test_warm_reports_failures);
    ("second scheme reuses lp-seeds, byte-identical", `Slow,
     test_lp_seed_shared);
    ("corrupt lp-seed quarantined and recomputed", `Slow,
     test_lp_seed_corrupt);
    ("generation loop speaks typed events, artifacts unchanged", `Slow,
     test_loop_events);
    ("verify leaves the oracle table as the oracle stage built it", `Slow,
     test_verify_reads_oracle);
  ]
