(* The paper's evaluation harness: regenerates every table and data
   figure of the evaluation section on the reduced-width universe.

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
     dune exec bench/main.exe -- --help            (also -j, --cache-dir,
                                                    --cache-stats,
                                                    --log-level, --trace,
                                                    shared with rlibm_gen)

   Every other timing — generation stages, the serving kernel, the store
   — is the repository benchmark's (perfbench/, see BENCHMARK.json).

   Generation runs through the staged pipeline (lib/pipeline): the first
   run persists every stage — oracle table, merged constraints,
   per-scheme polynomial, verdict — through the hardened
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

(* The Horner-generated function re-evaluated under [scheme] as a
   post-process (each piece re-compiled, so Knuth adapts its
   coefficients; the special table kept): its wrong round-to-odd
   results, as the served kernel computes them.  [None] when [scheme] is
   undefined at some piece's degree. *)
let post_process_wrong (horner_g : Rlibm.Generate.generated) func scheme =
  let cfg = horner_g.Rlibm.Generate.cfg in
  let adapted =
    Array.map
      (fun (p : Polyeval.compiled) -> Polyeval.compile scheme p.Polyeval.data)
      horner_g.Rlibm.Generate.pieces
  in
  if Array.exists Option.is_none adapted then None
  else
    let post =
      { horner_g with Rlibm.Generate.scheme; pieces = Array.map Option.get adapted }
    in
    let rep =
      Genlibm.verify ~narrow:false
        ~oracle:(Result.get_ok (Pipeline.oracle_stage ~cfg func))
        post
        ~inputs:(Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin)
    in
    Some rep.Genlibm.wrong34

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
            List.iter
              (fun scheme ->
                let post = post_process_wrong horner_g e.func scheme in
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
      (* The verdict stage: persisted like every other artifact, so a
         re-run of the harness loads it instead of re-verifying. *)
      match
        Pipeline.verified ~cfg:(Rlibm.Config.mini_for e.func) ~scheme:e.scheme
          e.func
      with
      | Error err ->
          Printf.printf "%-7s %-11s FAILED: %s\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Diag.Error.to_string err)
      | Ok (_, rep) ->
          Printf.printf "%-7s %-11s %s\n%!" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Format.asprintf "%a" Genlibm.pp_verify_report rep))
    grid;
  print_newline ()

(* ---------- driver ---------- *)

let run table1 table2 post_process correctness cost quick jobs cache_dir
    cache_stats log_level trace =
  Cli.set_jobs jobs;
  Cli.install_diag ~jobs:(Parallel.jobs ()) ~level:log_level ~trace ();
  Cli.set_cache_dir cache_dir;
  let funcs = if quick then [ Oracle.Exp2; Oracle.Log2 ] else Oracle.all in
  (* No experiment selected means all of them. *)
  let all = not (table1 || table2 || post_process || correctness || cost) in
  let table1 = all || table1 and table2 = all || table2
  and post_process = all || post_process
  and correctness = all || correctness and cost = all || cost in
  Printf.eprintf
    "rlibm-fastpoly benchmark harness (%d functions x %d schemes, %d-bit \
     inputs, -j %d)\n\n%!"
    (List.length funcs)
    (List.length Polyeval.paper_schemes)
    (Softfp.width Rlibm.Config.mini_tin)
    (Parallel.jobs ());
  if cost then print_cost_model ();
  let grid =
    if table1 || table2 || post_process || correctness then generate_grid funcs
    else []
  in
  if table1 then print_table1 grid;
  if table2 then print_table2 (measure_grid grid);
  if post_process then print_post_process grid;
  if correctness then print_correctness grid;
  Cli.report_cache_stats cache_stats

let () =
  let open Cmdliner in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main"
             ~doc:
               "Regenerate the paper's evaluation tables (E1-E4) and the \
                static cost model; with no selection flag, all of them.")
          Term.(
            const run
            $ flag "table1" "E1: Table 1, the generated polynomials."
            $ flag "table2" "E2: Table 2 and the Figure 6 series (timings)."
            $ flag "post-process"
                "E3: post-process adaptation vs the integrated loop."
            $ flag "correctness"
                "E4: every representation and rounding mode, exhaustively."
            $ flag "cost" "The static cost model (operation counts, depth)."
            $ flag "quick" "Only exp2 and log2 instead of all six functions."
            $ Cli.jobs_arg $ Cli.cache_dir_arg $ Cli.cache_stats_arg
            $ Cli.log_level_arg $ Cli.trace_arg)))
