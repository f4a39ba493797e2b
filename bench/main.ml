(* Benchmark and experiment harness: regenerates every table and data
   figure of the paper's evaluation section on the reduced-width universe.

     E1  Table 1   — properties of the generated polynomial approximations
     E2  Table 2 + Figure 6 — speedup of RLibm-Knuth / RLibm-Estrin /
                    RLibm-Estrin+FMA over RLibm's Horner baseline
     E3  §6.3      — post-process adaptation vs the integrated loop
     E4  §6.3      — correctness for all representations and rounding modes

   Usage:
     dune exec bench/main.exe                      (everything)
     dune exec bench/main.exe -- --table1          (just E1)
     dune exec bench/main.exe -- --table2          (just E2: timings)
     dune exec bench/main.exe -- --post-process    (just E3)
     dune exec bench/main.exe -- --correctness     (just E4)
     dune exec bench/main.exe -- --cost            (static cost model)
     dune exec bench/main.exe -- --quick           (2 functions only)
     dune exec bench/main.exe -- -j N              (N-way generation/verify
                                                    fan-out; default: all
                                                    cores; -j 1 = the exact
                                                    sequential path)
     dune exec bench/main.exe -- --json PATH       (also write the E2
                                                    timings as JSON for
                                                    perf trajectory
                                                    tracking)
     dune exec bench/main.exe -- --gen-json PATH   (cold vs warm staged
                                                    generation timings per
                                                    function, in a fresh
                                                    store directory)
     dune exec bench/main.exe -- --serve-bench     (serving hot path:
                                                    scalar DAG reference vs
                                                    the zero-allocation
                                                    kernel,
                                                    ns/eval + evals/sec +
                                                    minor words/eval)
     dune exec bench/main.exe -- --serve-json PATH (write the serve-bench
                                                    rows as JSON)
     dune exec bench/main.exe -- --serve-batch-pow N  (batch size 2^N;
                                                    default 16)
     dune exec bench/main.exe -- --shard-bench     (oracle stage: cold
                                                    unsharded vs cold
                                                    sharded vs resumed
                                                    from a half-filled
                                                    shard store)
     dune exec bench/main.exe -- --shard-json PATH (write the shard-bench
                                                    rows as JSON)
     dune exec bench/main.exe -- --shards S        (shard count for
                                                    --shard-bench;
                                                    default 4)
     dune exec bench/main.exe -- --cache-dir DIR   (relocate the store)
     dune exec bench/main.exe -- --cache-stats     (report artifact store
                                                    hit/miss/corrupt
                                                    counters, per kind,
                                                    on stderr)

   Generation runs through the staged pipeline (lib/pipeline): the first
   run persists every stage — oracle table, rounding intervals, merged
   constraints, per-scheme polynomial, verdict — through the hardened
   Cache store (default ./.oracle-cache; RLIBM_CACHE_DIR relocates it,
   RLIBM_NO_DISK_CACHE=1 disables it); subsequent runs load the deepest
   stage directly and perform zero oracle evaluations and zero LP
   solves.  Corrupt or stale entries are quarantined and regenerated,
   never trusted — --cache-stats makes that visible. *)

open Bechamel
open Toolkit

(* ---------- shared generation ---------- *)

type entry = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  gen : (Rlibm.Generate.generated, Diag.Error.t) result;
}

let generate_grid funcs =
  List.concat_map
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      List.map
        (fun scheme ->
          { func; scheme; gen = Pipeline.generate ~cfg ~scheme func })
        Polyeval.paper_schemes)
    funcs

(* ---------- E1: Table 1 ---------- *)

let print_table1 grid =
  print_endline "== E1: Table 1 — generated polynomial approximations ==";
  print_endline
    "(paper: Table 1; reduced-width universe, so absolute numbers differ —\n\
     the shape (low degrees, few pieces, handfuls of special inputs) is\n\
     the reproduction target)";
  Printf.printf "%-7s %-11s %7s %-10s %9s\n" "f" "scheme" "pieces" "degrees"
    "specials";
  List.iter
    (fun e ->
      match e.gen with
      | Error err ->
          Printf.printf "%-7s %-11s  FAILED: %s\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Diag.Error.to_string err)
      | Ok g ->
          let row = Genlibm.table1_row g in
          Printf.printf "%-7s %-11s %7d %-10s %9d\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme) row.Genlibm.n_pieces
            (String.concat "," (List.map string_of_int row.Genlibm.degrees))
            row.Genlibm.n_specials)
    grid;
  print_newline ()

(* ---------- E2: Table 2 and Figure 6 ---------- *)

(* Timing methodology: every generated function is evaluated over the same
   sweep of valid polynomial-path inputs through the served batch kernel
   (Genlibm.eval_bits_into), one sweep per call on the calling domain.
   The shared decode, special-table probe, range reduction and output
   compensation are part of the measured path, as in the paper's rdtscp
   harness (whose special-case check is a two-instruction compare chain
   rather than our binary search).  One Bechamel sample evaluates the
   whole sweep; the analyzer's OLS estimate divided by the sweep size
   gives ns/call. *)

let sweep_inputs (g : Rlibm.Generate.generated) =
  let tin = g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let acc = ref [] in
  Softfp.iter_finite tin (fun b ->
      if
        g.Rlibm.Generate.family.Rlibm.Reduction.shortcut (Softfp.to_float tin b)
        = None
        && not (Hashtbl.mem g.Rlibm.Generate.specials b)
      then acc := b :: !acc);
  let xs = Array.of_list !acc in
  let src = Genlibm.create_src (Array.length xs) in
  Array.iteri (Bigarray.Array1.set src) xs;
  src

let bench_tests grid =
  List.filter_map
    (fun e ->
      match e.gen with
      | Error _ -> None
      | Ok g ->
          let src = sweep_inputs g in
          let n = Bigarray.Array1.dim src in
          let dst = Genlibm.create_dst n in
          let name =
            Printf.sprintf "%s/%s" (Oracle.name e.func)
              (Polyeval.scheme_name e.scheme)
          in
          let run () = Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n in
          Some ((e.func, e.scheme, n), Test.make ~name (Staged.stage run)))
    grid

let run_bechamel tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:true ()
  in
  let grouped =
    Test.make_grouped ~name:"polyeval" ~fmt:"%s %s" (List.map snd tests)
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

(* One timing measurement: median-estimate ns per call for a (func,
   scheme) cell, from Bechamel's OLS fit over the sweep. *)
type timing = { t_func : Oracle.func; t_scheme : Polyeval.scheme; t_ns : float }

let measure_grid grid =
  let tests = bench_tests grid in
  let results = run_bechamel tests in
  List.filter_map
    (fun ((func, scheme, sweep), _) ->
      let name =
        Printf.sprintf "polyeval %s/%s" (Oracle.name func)
          (Polyeval.scheme_name scheme)
      in
      match Hashtbl.find_opt results name with
      | Some ols -> (
          match Analyze.OLS.estimates ols with
          | Some (t :: _) ->
              Some { t_func = func; t_scheme = scheme; t_ns = t /. float_of_int sweep }
          | _ -> None)
      | None -> None)
    tests

let time_of timings func scheme =
  List.find_map
    (fun t -> if t.t_func = func && t.t_scheme = scheme then Some t.t_ns else None)
    timings

let speedup_pct th t = 100.0 *. ((th /. t) -. 1.0)

let print_table2 timings =
  print_endline
    "== E2: Table 2 / Figure 6 — speedup over RLibm (Horner baseline) ==";
  let funcs =
    List.sort_uniq compare (List.map (fun t -> t.t_func) timings)
  in
  let fast_schemes = [ Polyeval.Knuth; Polyeval.Estrin; Polyeval.EstrinFma ] in
  Printf.printf "%-8s %10s | %9s %9s %9s   (speedup vs horner)\n" "f"
    "horner ns" "knuth" "estrin" "estr+fma";
  let sums = Hashtbl.create 4 in
  List.iter
    (fun func ->
      match time_of timings func Polyeval.Horner with
      | None -> ()
      | Some th ->
          Printf.printf "%-8s %10.2f |" (Oracle.name func) th;
          List.iter
            (fun scheme ->
              match time_of timings func scheme with
              | None -> Printf.printf "%9s" "n/a"
              | Some t ->
                  let speedup = speedup_pct th t in
                  let s, n =
                    Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums scheme)
                  in
                  Hashtbl.replace sums scheme (s +. speedup, n + 1);
                  Printf.printf "%8.1f%%" speedup)
            fast_schemes;
          print_newline ())
    funcs;
  Printf.printf "%-8s %10s |" "average" "";
  List.iter
    (fun scheme ->
      match Hashtbl.find_opt sums scheme with
      | Some (s, n) when n > 0 -> Printf.printf "%8.1f%%" (s /. float_of_int n)
      | _ -> Printf.printf "%9s" "n/a")
    fast_schemes;
  print_newline ();
  print_endline
    "(paper, x86 vfmadd testbed: knuth ~4%, estrin ~15%, estrin+fma ~24%;\n\
     our Float.fma is a libm call — see EXPERIMENTS.md for the discussion)";
  (* Figure 6 as a data series. *)
  print_endline "\n-- Figure 6 series (speedup % per function) --";
  List.iter
    (fun scheme ->
      Printf.printf "%-11s" (Polyeval.scheme_name scheme);
      List.iter
        (fun func ->
          match (time_of timings func Polyeval.Horner, time_of timings func scheme) with
          | Some th, Some t ->
              Printf.printf " %s=%.1f" (Oracle.name func) (speedup_pct th t)
          | _ -> Printf.printf " %s=n/a" (Oracle.name func))
        funcs;
      print_newline ())
    fast_schemes;
  print_newline ()

(* Machine-readable E2 results, for BENCH_*.json perf trajectory
   tracking across PRs (standard envelope: see bench_json.ml). *)
let write_json path ~jobs timings =
  let n = List.length timings in
  Bench_json.write_file path ~kind:"polyeval-ns" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin)
    (fun oc ->
      Printf.fprintf oc "  \"results\": [\n";
      List.iteri
        (fun i t ->
          let speedup =
            match time_of timings t.t_func Polyeval.Horner with
            | Some th when t.t_ns > 0.0 -> speedup_pct th t.t_ns
            | _ -> 0.0
          in
          Printf.fprintf oc
            "    {\"func\": %S, \"scheme\": %S, \"median_ns\": %.4f, \
             \"speedup_vs_horner_pct\": %.2f}%s\n"
            (Oracle.name t.t_func)
            (Polyeval.scheme_name t.t_scheme)
            t.t_ns speedup
            (if i = n - 1 then "" else ","))
        timings;
      Printf.fprintf oc "  ]\n");
  Printf.eprintf "wrote %s (%d timing rows)\n%!" path n

(* ---------- static cost model (the mechanism behind Figure 6) ---------- *)

let print_cost_model () =
  print_endline
    "== Cost model — operation counts and dependence depth (§3-§4) ==";
  Printf.printf "%-11s %s\n" "scheme" "degree:  4             5             6";
  List.iter
    (fun scheme ->
      Printf.printf "%-11s         " (Polyeval.scheme_name scheme);
      List.iter
        (fun d ->
          let c = Expr.cost (Polyeval.scheme_expr scheme ~degree:d) in
          Printf.printf "%dm+%da+%df/d%-2d  "
            c.Expr.mults c.Expr.adds c.Expr.fmas c.Expr.depth)
        [ 4; 5; 6 ];
      print_newline ())
    Polyeval.all_schemes;
  print_endline
    "(m=mul, a=add, f=fma, d=critical-path depth under perfect ILP;\n\
     Horner's serial 2d chain vs Estrin's ~2·log2(d) is the Figure-6\n\
     mechanism, and Knuth trades multiplies for adds per §3)\n"

(* ---------- E3: post-process pitfall ---------- *)

let count_post_process_wrong (horner_g : Rlibm.Generate.generated) scheme
    inputs =
  let tin = horner_g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let tout = Rlibm.Config.tout horner_g.Rlibm.Generate.cfg in
  let adapted =
    Array.map
      (fun (p : Polyeval.compiled) -> Polyeval.compile scheme p.Polyeval.data)
      horner_g.Rlibm.Generate.pieces
  in
  if Array.exists (fun c -> c = None) adapted then None
  else begin
    (* The Horner function re-evaluated under [scheme], through the
       served kernel. *)
    let post =
      { horner_g with Rlibm.Generate.scheme; pieces = Array.map Option.get adapted }
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
          && (not (Hashtbl.mem horner_g.Rlibm.Generate.specials x))
          && horner_g.Rlibm.Generate.family.Rlibm.Reduction.shortcut
               (Softfp.to_float tin x)
             = None
        then
          let y_impl = Genlibm.round_result tout Softfp.RTO dst.{i} in
          match Hashtbl.find_opt horner_g.Rlibm.Generate.oracle x with
          | Some y_true when not (Int64.equal y_impl y_true) -> incr wrong
          | _ -> ())
      inputs;
    Some !wrong
  end

let print_post_process grid =
  print_endline "== E3: §6.3 — post-process adaptation vs integrated loop ==";
  Printf.printf "%-7s %-11s %20s %20s\n" "f" "scheme" "post-proc #wrong"
    "integrated #specials";
  List.iter
    (fun e ->
      if e.scheme = Polyeval.Horner then
        match e.gen with
        | Error _ -> ()
        | Ok horner_g ->
            let inputs =
              Genlibm.inputs_exhaustive
                horner_g.Rlibm.Generate.cfg.Rlibm.Config.tin
            in
            List.iter
              (fun scheme ->
                let post = count_post_process_wrong horner_g scheme inputs in
                let integrated =
                  match
                    List.find_opt
                      (fun e2 -> e2.func = e.func && e2.scheme = scheme)
                      grid
                  with
                  | Some { gen = Ok g; _ } ->
                      string_of_int (Rlibm.Generate.n_specials g)
                  | _ -> "failed"
                in
                Printf.printf "%-7s %-11s %20s %20s\n" (Oracle.name e.func)
                  (Polyeval.scheme_name scheme)
                  (match post with None -> "n/a" | Some w -> string_of_int w)
                  integrated)
              [ Polyeval.Knuth; Polyeval.Estrin; Polyeval.EstrinFma ])
    grid;
  print_newline ()

(* ---------- E4: multi-representation correctness ---------- *)

let print_correctness grid =
  print_endline
    "== E4: correctness for all representations and rounding modes ==";
  List.iter
    (fun e ->
      match e.gen with
      | Error err ->
          Printf.printf "%-7s %-11s FAILED: %s\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Diag.Error.to_string err)
      | Ok g ->
          (* The verdict stage: persisted like every other artifact, so a
             re-run of the harness loads it instead of re-verifying. *)
          let rep =
            match
              Pipeline.verified ~cfg:g.Rlibm.Generate.cfg ~scheme:e.scheme
                e.func
            with
            | Ok (_, rep) -> rep
            | Error _ ->
                Genlibm.verify g
                  ~inputs:
                    (Genlibm.inputs_exhaustive
                       g.Rlibm.Generate.cfg.Rlibm.Config.tin)
          in
          Printf.printf "%-7s %-11s %s\n%!" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Format.asprintf "%a" Genlibm.pp_verify_report rep))
    grid;
  print_newline ()

(* ---------- staged-generation timings (cold vs warm store) ---------- *)

(* End-to-end pipeline wall time per function — every stage through
   verify, via Pipeline.run_stages — measured twice against a fresh store
   directory: cold (every stage rebuilt) and warm (every stage loaded;
   zero oracle evaluations, zero LP solves).  The in-process oracle memo
   is dropped between the runs so the warm figure measures the disk
   path. *)

type gen_timing = {
  g_func : Oracle.func;
  g_cold_s : float;
  g_warm_s : float;
  g_cold_rebuilt : int;
  g_warm_rebuilt : int;
  g_ok : bool;
}

let measure_generation funcs =
  let scheme = Polyeval.EstrinFma in
  let saved = Cache.dir () in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rlibm-bench-gen-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir tmp 0o755 with Sys_error _ -> ());
  Cache.set_dir tmp;
  Fun.protect
    ~finally:(fun () -> Cache.set_dir saved)
    (fun () ->
      List.map
        (fun func ->
          let cfg = Rlibm.Config.mini_for func in
          let timed () =
            Rlibm.Constraints.clear_memory_cache ();
            let t0 = Unix.gettimeofday () in
            let events, r = Pipeline.run_stages ~cfg ~scheme func in
            let rebuilt =
              List.length
                (List.filter
                   (fun e -> e.Pipeline.ev_status = Pipeline.Rebuilt)
                   events)
            in
            (Unix.gettimeofday () -. t0, rebuilt, r)
          in
          let cold_s, cold_rebuilt, cold = timed () in
          let warm_s, warm_rebuilt, warm = timed () in
          Printf.eprintf
            "%-7s cold %6.2fs (%d stages rebuilt)  warm %6.3fs (%d rebuilt)\n%!"
            (Oracle.name func) cold_s cold_rebuilt warm_s warm_rebuilt;
          {
            g_func = func;
            g_cold_s = cold_s;
            g_warm_s = warm_s;
            g_cold_rebuilt = cold_rebuilt;
            g_warm_rebuilt = warm_rebuilt;
            g_ok = (match (cold, warm) with Ok _, Ok _ -> true | _ -> false);
          })
        funcs)

let write_gen_json path ~jobs rows =
  let n = List.length rows in
  Bench_json.write_file path ~kind:"staged-generation" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin)
    (fun oc ->
      Printf.fprintf oc "  \"scheme\": %S,\n  \"generation\": [\n"
        (Polyeval.scheme_name Polyeval.EstrinFma);
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"func\": %S, \"cold_s\": %.4f, \"warm_s\": %.4f, \
             \"cold_rebuilt_stages\": %d, \"warm_rebuilt_stages\": %d, \
             \"warm_speedup\": %.1f, \"ok\": %b}%s\n"
            (Oracle.name r.g_func) r.g_cold_s r.g_warm_s r.g_cold_rebuilt
            r.g_warm_rebuilt
            (if r.g_warm_s > 0.0 then r.g_cold_s /. r.g_warm_s else 0.0)
            r.g_ok
            (if i = n - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n");
  Printf.eprintf "wrote %s (%d generation timing rows)\n%!" path n

(* ---------- oracle sharding: cold vs sharded vs resumed ---------- *)

(* Wall time of the oracle stage alone, per function, each against a
   fresh store directory: unsharded cold (the baseline single-artifact
   run), sharded cold (same Ziv work plus S shard publishes and the
   whole-table republish — the sharding overhead), and resumed (the
   first half of the shards pre-published, as a killed warmer would
   leave them; the resume must load those and compute only the rest).
   The merged table is checked entry-identical against the unsharded
   one — the sharding determinism contract, measured end to end. *)

type shard_timing = {
  s_func : Oracle.func;
  s_cold_unsharded_s : float;
  s_cold_sharded_s : float;
  s_resume_s : float;
  s_resume_hits : int;  (* shards loaded on resume *)
  s_resume_misses : int;  (* shards computed on resume *)
  s_identical : bool;  (* merged table = unsharded table *)
}

let measure_sharding funcs ~shards =
  let saved = Cache.dir () in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rlibm-bench-shard-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let counter = ref 0 in
  let fresh_dir () =
    incr counter;
    let d = Filename.concat root (string_of_int !counter) in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    Cache.set_dir d
  in
  let timed f =
    Rlibm.Constraints.clear_memory_cache ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let sorted_entries tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  Fun.protect
    ~finally:(fun () -> Cache.set_dir saved)
    (fun () ->
      List.map
        (fun func ->
          let cfg = Rlibm.Config.mini_for func in
          fresh_dir ();
          let ok = function Ok v -> v | Error e -> Cli.exit_error e in
          let cold_un_s, unsharded =
            timed (fun () -> ok (Pipeline.oracle_stage ~cfg func))
          in
          let reference = sorted_entries unsharded in
          fresh_dir ();
          let cold_sh_s, sharded =
            timed (fun () -> ok (Pipeline.oracle_stage ~shards ~cfg func))
          in
          let identical = sorted_entries sharded = reference in
          (* A killed warmer's store: the first half of the shards
             published, nothing merged. *)
          fresh_dir ();
          List.iter
            (fun k ->
              Rlibm.Constraints.clear_memory_cache ();
              ignore
                (ok (Pipeline.oracle_stage ~shards ~only_shard:k ~cfg func)
                  : (int64, int64) Hashtbl.t))
            (List.init (shards / 2) Fun.id);
          Cache.reset_stats ();
          let resume_s, _ =
            timed (fun () -> ok (Pipeline.oracle_stage ~shards ~cfg func))
          in
          let hits, misses =
            match List.assoc_opt "oracle-shard" (Cache.stats_by_kind ()) with
            | Some s -> (s.Cache.hits, s.Cache.misses)
            | None -> (0, 0)
          in
          let row =
            {
              s_func = func;
              s_cold_unsharded_s = cold_un_s;
              s_cold_sharded_s = cold_sh_s;
              s_resume_s = resume_s;
              s_resume_hits = hits;
              s_resume_misses = misses;
              s_identical = identical;
            }
          in
          Printf.eprintf
            "%-7s unsharded %6.2fs  sharded %6.2fs  resume %6.2fs (%d \
             loaded, %d computed)  identical %s\n%!"
            (Oracle.name func) cold_un_s cold_sh_s resume_s hits misses
            (if identical then "yes" else "NO");
          row)
        funcs)

let print_sharding ~shards rows =
  Printf.printf
    "== oracle sharding: cold vs %d-shard cold vs resumed (half \
     pre-published) ==\n"
    shards;
  Printf.printf "%-7s %12s %12s %12s %10s %s\n" "f" "unsharded s" "sharded s"
    "resume s" "overhead" "identical";
  List.iter
    (fun r ->
      Printf.printf "%-7s %12.3f %12.3f %12.3f %9.1f%% %s\n"
        (Oracle.name r.s_func) r.s_cold_unsharded_s r.s_cold_sharded_s
        r.s_resume_s
        (if r.s_cold_unsharded_s > 0.0 then
           100.0 *. ((r.s_cold_sharded_s /. r.s_cold_unsharded_s) -. 1.0)
         else 0.0)
        (if r.s_identical then "yes" else "NO"))
    rows;
  print_newline ();
  if List.exists (fun r -> not r.s_identical) rows then begin
    print_endline "shard bench: merged table differs from the unsharded one";
    exit 1
  end

let write_shard_json path ~jobs ~shards rows =
  let n = List.length rows in
  Bench_json.write_file path ~kind:"oracle-sharding" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin)
    (fun oc ->
      Printf.fprintf oc "  \"shards\": %d,\n  \"results\": [\n" shards;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"func\": %S, \"cold_unsharded_s\": %.4f, \
             \"cold_sharded_s\": %.4f, \"resume_s\": %.4f, \
             \"resume_shard_hits\": %d, \"resume_shard_misses\": %d, \
             \"sharding_overhead_pct\": %.2f, \"bit_identical\": %b}%s\n"
            (Oracle.name r.s_func) r.s_cold_unsharded_s r.s_cold_sharded_s
            r.s_resume_s r.s_resume_hits r.s_resume_misses
            (if r.s_cold_unsharded_s > 0.0 then
               100.0 *. ((r.s_cold_sharded_s /. r.s_cold_unsharded_s) -. 1.0)
             else 0.0)
            r.s_identical
            (if i = n - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n");
  Printf.eprintf "wrote %s (%d sharding timing rows)\n%!" path n

(* ---------- serve-path throughput: scalar vs batch kernel ---------- *)

(* Measures the serving hot path end to end: scalar = the reference
   path (Parallel.map_array of Genlibm.eval_bits: Softfp decode, the
   reference reduction and a walk of the piece's Expr DAG per element),
   the one the kernel is checked against bit for bit; kernel =
   Serve.eval_batch_into (chunked zero-allocation batch kernels into a
   caller-owned Bigarray).  Both run at the harness's -j; the kernel
   path's minor-heap allocation is additionally measured per eval at
   -j 1, where the whole batch runs on this domain and Gc.minor_words
   counts exactly the kernel's own allocations. *)

type serve_row = {
  sv_func : Oracle.func;
  sv_scheme : Polyeval.scheme;
  sv_batch : int;
  sv_scalar_ns : float;
  sv_kernel_ns : float;
  sv_minor_words : float;  (* kernel minor words per eval, -j 1 *)
  sv_identical : bool;  (* kernel output bit-identical to scalar *)
}

(* Uniform random bit patterns over the whole format (NaN/Inf/specials
   included: the serving path must take every branch), fixed seed so
   every run and every PR measures the same batch. *)
let random_batch tin ~pow ~seed =
  let st = Random.State.make [| seed |] in
  let w = Softfp.width tin in
  Array.init (1 lsl pow) (fun _ ->
      Random.State.int64 st (Int64.shift_left 1L w))

(* ns/eval over enough repetitions to cover ~0.3 s of wall time. *)
let time_ns_per_eval f n =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let reps = Stdlib.max 3 (int_of_float (0.3 /. Float.max 1e-6 once)) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps /. float_of_int n *. 1e9

let measure_serve funcs schemes ~batch_pow ~jobs =
  List.concat_map
    (fun scheme ->
      let specs =
        List.map (fun f -> (f, scheme, Rlibm.Config.mini_for f)) funcs
      in
      match Serve.build specs with
      | Error err ->
          Printf.eprintf "serve bench: snapshot build failed (%s): %s\n%!"
            (Polyeval.scheme_name scheme)
            (Diag.Error.to_string err);
          []
      | Ok snap ->
          List.map
            (fun func ->
              let e = Option.get (Serve.find snap func) in
              let impl = e.Serve.e_impl in
              let tin = e.Serve.e_cfg.Rlibm.Config.tin in
              let inputs = random_batch tin ~pow:batch_pow ~seed:7 in
              let n = Array.length inputs in
              let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
              Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
              let scalar_run () =
                Parallel.map_array (fun x -> Genlibm.eval_bits impl x) inputs
              in
              let kernel_run () = Serve.eval_batch_into snap func ~src ~dst in
              let scalar = scalar_run () in
              kernel_run ();
              let identical = ref true in
              for i = 0 to n - 1 do
                if
                  not
                    (Int64.equal
                       (Int64.bits_of_float scalar.(i))
                       (Int64.bits_of_float (Bigarray.Array1.get dst i)))
                then identical := false
              done;
              let scalar_ns = time_ns_per_eval (fun () -> ignore (scalar_run ())) n in
              let kernel_ns = time_ns_per_eval kernel_run n in
              Parallel.set_jobs 1;
              kernel_run ();
              (* warm run above sizes the per-domain scratch *)
              let w0 = Gc.minor_words () in
              kernel_run ();
              let minor = (Gc.minor_words () -. w0) /. float_of_int n in
              Parallel.set_jobs jobs;
              {
                sv_func = func;
                sv_scheme = scheme;
                sv_batch = n;
                sv_scalar_ns = scalar_ns;
                sv_kernel_ns = kernel_ns;
                sv_minor_words = minor;
                sv_identical = !identical;
              })
            funcs)
    schemes

let print_serve ~batch_pow ~jobs rows =
  Printf.printf
    "== serve throughput: scalar batch vs zero-allocation kernel (batch \
     2^%d, -j %d) ==\n"
    batch_pow jobs;
  Printf.printf "%-7s %-11s %10s %10s %8s %14s %12s %s\n" "f" "scheme"
    "scalar ns" "kernel ns" "speedup" "kernel evals/s" "minor w/eval"
    "identical";
  List.iter
    (fun r ->
      Printf.printf "%-7s %-11s %10.1f %10.1f %7.2fx %14.3e %12.4f %s\n"
        (Oracle.name r.sv_func)
        (Polyeval.scheme_name r.sv_scheme)
        r.sv_scalar_ns r.sv_kernel_ns
        (if r.sv_kernel_ns > 0.0 then r.sv_scalar_ns /. r.sv_kernel_ns else 0.0)
        (if r.sv_kernel_ns > 0.0 then 1e9 /. r.sv_kernel_ns else 0.0)
        r.sv_minor_words
        (if r.sv_identical then "yes" else "NO"))
    rows;
  print_newline ();
  if List.exists (fun r -> not r.sv_identical) rows then begin
    print_endline "serve bench: kernel output differs from the scalar path";
    exit 1
  end

let write_serve_json path ~jobs ~batch_pow rows =
  let n = List.length rows in
  Bench_json.write_file path ~kind:"serve-throughput" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin)
    (fun oc ->
      Printf.fprintf oc "  \"batch_pow\": %d,\n  \"results\": [\n" batch_pow;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"func\": %S, \"scheme\": %S, \"batch\": %d, \
             \"scalar_ns_per_eval\": %.3f, \"kernel_ns_per_eval\": %.3f, \
             \"scalar_evals_per_s\": %.0f, \"kernel_evals_per_s\": %.0f, \
             \"speedup\": %.3f, \"kernel_minor_words_per_eval\": %.5f, \
             \"bit_identical\": %b}%s\n"
            (Oracle.name r.sv_func)
            (Polyeval.scheme_name r.sv_scheme)
            r.sv_batch r.sv_scalar_ns r.sv_kernel_ns
            (if r.sv_scalar_ns > 0.0 then 1e9 /. r.sv_scalar_ns else 0.0)
            (if r.sv_kernel_ns > 0.0 then 1e9 /. r.sv_kernel_ns else 0.0)
            (if r.sv_kernel_ns > 0.0 then r.sv_scalar_ns /. r.sv_kernel_ns
             else 0.0)
            r.sv_minor_words r.sv_identical
            (if i = n - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n");
  Printf.eprintf "wrote %s (%d serve timing rows)\n%!" path n

(* ---------- driver ---------- *)

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let jobs = Cli.parse_jobs args in
  Parallel.set_jobs jobs;
  Cli.install_diag_argv ~jobs args;
  Cli.set_cache_dir (Cli.opt_value [ "--cache-dir" ] args);
  let json_path = Cli.opt_value [ "--json" ] args in
  let gen_json_path = Cli.opt_value [ "--gen-json" ] args in
  let quick = has "--quick" in
  let serve_bench = has "--serve-bench" in
  let serve_json_path = Cli.opt_value [ "--serve-json" ] args in
  let shard_bench = has "--shard-bench" in
  let shard_json_path = Cli.opt_value [ "--shard-json" ] args in
  let bench_shards =
    match Cli.opt_value [ "--shards" ] args with
    | Some v -> (
        match int_of_string_opt v with
        | Some s when s >= 2 -> s
        | _ ->
            Printf.eprintf "bad --shards value %S (must be >= 2)\n" v;
            exit 2)
    | None -> 4
  in
  let serve_batch_pow =
    match Cli.opt_value [ "--serve-batch-pow" ] args with
    | Some v -> (
        match int_of_string_opt v with
        | Some p when p >= 4 && p <= 26 -> p
        | _ ->
            Printf.eprintf "bad --serve-batch-pow value %S\n" v;
            exit 2)
    | None -> 16
  in
  let funcs = if quick then [ Oracle.Exp2; Oracle.Log2 ] else Oracle.all in
  let all =
    not
      (has "--table1" || has "--table2" || has "--post-process"
     || has "--correctness" || has "--cost" || serve_bench || shard_bench
     || shard_json_path <> None || gen_json_path <> None)
  in
  Printf.eprintf
    "rlibm-fastpoly benchmark harness (%d functions x %d schemes, %d-bit \
     inputs, -j %d)\n\n%!"
    (List.length funcs)
    (List.length Polyeval.paper_schemes)
    (Softfp.width Rlibm.Config.mini_tin)
    jobs;
  if all || has "--cost" then print_cost_model ();
  let need_timings = all || has "--table2" || json_path <> None in
  let need_grid =
    need_timings || has "--table1" || has "--post-process"
    || has "--correctness"
  in
  let grid = if need_grid then generate_grid funcs else [] in
  if all || has "--table1" then print_table1 grid;
  let timings = if need_timings then measure_grid grid else [] in
  if all || has "--table2" then print_table2 timings;
  (match json_path with
  | Some path -> write_json path ~jobs timings
  | None -> ());
  if all || has "--post-process" then print_post_process grid;
  if all || has "--correctness" then print_correctness grid;
  if serve_bench then begin
    let schemes =
      if quick then [ Polyeval.Horner; Polyeval.EstrinFma ]
      else Polyeval.paper_schemes
    in
    let rows = measure_serve funcs schemes ~batch_pow:serve_batch_pow ~jobs in
    print_serve ~batch_pow:serve_batch_pow ~jobs rows;
    match serve_json_path with
    | Some path -> write_serve_json path ~jobs ~batch_pow:serve_batch_pow rows
    | None -> ()
  end;
  if shard_bench || shard_json_path <> None then begin
    let rows = measure_sharding funcs ~shards:bench_shards in
    print_sharding ~shards:bench_shards rows;
    match shard_json_path with
    | Some path -> write_shard_json path ~jobs ~shards:bench_shards rows
    | None -> ()
  end;
  (match gen_json_path with
  | Some path ->
      prerr_endline
        "== staged generation: cold vs warm store (fresh directory) ==";
      write_gen_json path ~jobs (measure_generation funcs)
  | None -> ());
  Cli.report_cache_stats (has "--cache-stats")
