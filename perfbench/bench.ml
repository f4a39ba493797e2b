(* The repository benchmark: one workload per run, driven through the
   library's public API from a single closed-loop caller at -j 2.

     bench.exe --workload gen-log|serve --seed N --seconds S
               --trace 0|1 [--size mini|tiny]
     bench.exe --self-test

   Every run starts from an empty artifact store under ./_perfbench and
   goes through the same phases:

     generate  cold staged pipeline (oracle -> intervals -> constraints
               -> poly -> verdict) for every (function, scheme) of the
               workload; the verdict's wrong results count as failures
     build     Serve.build of the workload's snapshots from the stage
               store (publishes the snapshots)
     reference every input pattern through the batch kernel, checked
               against the oracle (Check)
     serve     closed loop over a seeded request stream for S seconds:
               one request in [bulk_every] is bulk (2^16 random patterns),
               the rest small (2^6), each with freshly drawn patterns;
               every served element is checked against the oracle
               outside the timed region.  Set-up samples (warm
               Serve.build restarts; setup_s is their median) are spread
               evenly over the stream

   --trace 1 additionally records spans around every call into the
   library (Trace) and runs the per-layer probes and microbenchmarks
   after the timed part.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics untraced and the per-layer metrics traced.  The exit code is
   non-zero when any generation, build or result failed. *)

type size = Mini | Tiny

(* Tiny shrinks the input format to 10 bits for smoke tests; Mini is the
   13-bit universe every measurement uses. *)
let cfg_for size func =
  let cfg = Rlibm.Config.mini_for func in
  match size with
  | Mini -> cfg
  | Tiny -> { cfg with Rlibm.Config.tin = Softfp.make_fmt ~ebits:4 ~prec:6 }

(* A workload is its list of Serve snapshots; it generates every
   (function, scheme) they contain, in order. *)
let workloads =
  let fma = Polyeval.EstrinFma and horner = Polyeval.Horner in
  [
    ("gen-log", [ [ (Oracle.Log, fma); (Oracle.Log2, fma); (Oracle.Log10, fma) ] ]);
    ( "serve",
      [ [ (Oracle.Exp2, horner); (Oracle.Log, horner) ];
        [ (Oracle.Exp2, fma); (Oracle.Log, fma) ] ] );
  ]

(* The entries whose kernel split every traced run reports, whatever its
   workload: the serve workload's snapshots.  One fixed set keeps the
   per-layer metric names the same on every workload. *)
let probe_snapshots = List.assoc "serve" workloads
let probe_funcs = List.map fst (List.hd probe_snapshots)

let jobs = 2
let bulk_pow = 16
let small_n = 64
(* One request in [bulk_every] is bulk.  Nothing in the repository or
   the paper fixes a traffic mix; this ratio decides how the run time
   splits into samples (bulk requests take about 97% of it and small
   ones still outnumber them three to one).  The README records how
   little the serving metrics move under other ratios. *)
let bulk_every = 4
(* setup_s is the median of [setup_samples] samples, each the mean of
   [setup_batch] back-to-back restarts: one restart takes tens of us,
   too short to time alone against GC slices and timer jitter. *)
let setup_samples = 100
let setup_batch = 50

(* Tail percentiles, fixed so the metric means the same on every run.
   A run of the default length leaves well over ten samples beyond each
   (hundreds of bulk and thousands of small requests per entry). *)
let bulk_tail = 95.0
let small_tail = 99.0

(* ---------- results ---------- *)

exception Failed of string

let e2e : (string * float * string) list ref = ref []
let layer : (string * float * string) list ref = ref []
let metric tbl name unit v = tbl := (name, v, unit) :: !tbl
let info fmt = Printf.printf (fmt ^^ "\n%!")

let attempted = ref 0
let failed = ref 0
let checked = ref 0
let wrong = ref 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~trace =
  let ms = List.rev (if trace then !layer else !e2e) in
  List.iter (fun (n, v, u) -> info "metric %s = %s %s" n (json_number v) u) ms;
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " body)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())

(* Process CPU seconds, and the host's (steal, total) jiffies: printed
   next to wall times so a run slowed by a busy host shows as such. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let host_jiffies () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let fields =
    List.filter_map int_of_string_opt (String.split_on_char ' ' line)
  in
  (List.nth fields 7, List.fold_left ( + ) 0 fields)

let phase_note name ~wall ~cpu0 ~jiffies0 =
  let steal0, total0 = jiffies0 and steal1, total1 = host_jiffies () in
  info "%s: wall %.3f s, process cpu %.3f s, host steal %.1f %%" name wall
    (cpu_s () -. cpu0)
    (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)))

(* ---------- store ---------- *)

let work_dir = "_perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let fresh_store () =
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let dir = Filename.concat work_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Cache.set_dir dir;
  Cache.set_persistence (Some true);
  Cache.reset_stats ();
  at_exit (fun () -> rm_rf dir);
  dir

(* ---------- generation ---------- *)

type gen = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  cfg : Rlibm.Config.t;
  g : Rlibm.Generate.generated;
  built : Rlibm.Constraints.build_result;
  report : Genlibm.verify_report;
  oracle_evals : int;  (* oracle entries this generation computed *)
}

let name_of func scheme =
  Printf.sprintf "%s/%s" (Oracle.name func) (Polyeval.scheme_name scheme)

let ok_or what = function
  | Ok v -> v
  | Error e -> raise (Failed (what ^ ": " ^ Diag.Error.to_string e))

(* Every stage explicitly, in pipeline order, so each gets its own span;
   a cold store computes each stage exactly once. *)
let oracle_done = Hashtbl.create 8

let generate ~cfg ~scheme func =
  incr attempted;
  let what = name_of func scheme in
  let table =
    ok_or what
      (Trace.span "pipeline.oracle_stage" (fun () -> Pipeline.oracle_stage ~cfg func))
  in
  (* The store starts empty, so a function's first oracle stage computes
     its whole table and later ones (other schemes) compute nothing. *)
  let first = not (Hashtbl.mem oracle_done func) in
  Hashtbl.replace oracle_done func ();
  ignore
    (Trace.span "pipeline.intervals_stage" (fun () -> Pipeline.intervals_stage ~cfg func)
      : Rlibm.Constraints.rounding_interval array);
  let built =
    Trace.span "pipeline.constraints_stage" (fun () ->
        Pipeline.constraints_stage ~cfg func)
  in
  ignore
    (ok_or what
       (Trace.span "pipeline.generate" (fun () -> Pipeline.generate ~cfg ~scheme func))
      : Rlibm.Generate.generated);
  let g, report =
    ok_or what
      (Trace.span "pipeline.verified" (fun () -> Pipeline.verified ~cfg ~scheme func))
  in
  let bad = report.Genlibm.wrong34 + report.Genlibm.wrong_narrow in
  checked := !checked + report.Genlibm.checked + report.Genlibm.narrow_checks;
  wrong := !wrong + bad;
  info "gen %-17s degrees=%s specials=%d rounds=%d verify: %s" what
    (String.concat "," (Array.to_list (Array.map string_of_int g.Rlibm.Generate.degrees)))
    (Rlibm.Generate.n_specials g)
    (Array.fold_left ( + ) 0 g.Rlibm.Generate.rounds)
    (Format.asprintf "%a" Genlibm.pp_verify_report report);
  {
    func;
    scheme;
    cfg;
    g;
    built;
    report;
    oracle_evals = (if first then Hashtbl.length table else 0);
  }

(* ---------- serving ---------- *)

type entry = {
  snap : int;  (* index into the workload's snapshot list *)
  e_func : Oracle.func;
  e_scheme : Polyeval.scheme;
  impl : Genlibm.t;
  reference : Check.reference;
  bulk : float list ref;  (* request latencies, ns *)
  small : float list ref;
}

let build_snapshots ~size snapshots =
  List.map
    (fun snap ->
      incr attempted;
      let specs = List.map (fun (f, s) -> (f, s, cfg_for size f)) snap in
      ok_or "Serve.build" (Trace.span "serve.build" (fun () -> Serve.build specs)))
    snapshots
  |> Array.of_list

let fill_random st ~width src =
  for i = 0 to Bigarray.Array1.dim src - 1 do
    Bigarray.Array1.set src i (Int64.of_int (Random.State.int st (1 lsl width)))
  done

let random_src st ~width n =
  let src = Genlibm.create_src n in
  fill_random st ~width src;
  src

(* One request: the timed call, then the correctness check outside the
   timed region.  Returns the latency in ns. *)
let serve_request snaps e ~src ~dst =
  let n = Bigarray.Array1.dim src in
  let t =
    Trace.span "serve.eval_batch_into" (fun () ->
        Stats.time_ns (fun () -> Serve.eval_batch_into snaps.(e.snap) e.e_func ~src ~dst))
  in
  let bad = Trace.span "check.outputs" (fun () -> Check.count_wrong e.reference ~src ~dst n) in
  checked := !checked + n;
  wrong := !wrong + bad;
  t

(* ---------- per-layer probes (traced run only) ---------- *)

(* Algorithm 2's first LP round at the generated degree: the same call
   the poly stage makes, over one piece's full constraint set.  Returns
   (seconds, final working-set size). *)
let lp_solve pts degree =
  let points =
    Array.map
      (fun (p : Rlibm.Constraints.point) ->
        {
          Lp.x = Rat.of_float p.Rlibm.Constraints.r;
          lo = Rat.of_float p.Rlibm.Constraints.lo;
          hi = Rat.of_float p.Rlibm.Constraints.hi;
        })
      pts
  in
  let result = ref Lp.Unsat in
  let ns =
    Stats.time_ns (fun () ->
        result :=
          Trace.span "lp.solve_interval_system" (fun () ->
              Lp.solve_interval_system ~mono_bits:64
                ~powers:(Array.init (degree + 1) Fun.id)
                points))
  in
  (ns *. 1e-9, match !result with Lp.Sat (_, w) -> List.length w | Lp.Unsat -> 0)

(* [lp_solve] for every piece of every generation.  Constraints do not
   depend on the scheme, so a (function, piece, degree) shared by several
   schemes is solved once. *)
let lp_probe gens =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun gen ->
      List.concat
        (List.mapi
           (fun piece pts ->
             let degree = gen.g.Rlibm.Generate.degrees.(piece) in
             let key = (Oracle.name gen.func, piece, degree) in
             if Hashtbl.mem seen key then []
             else begin
               Hashtbl.add seen key ();
               [ lp_solve pts degree ]
             end)
           (Array.to_list gen.built.Rlibm.Constraints.points)))
    gens

type kernel_probe = {
  kernel_ns : float;  (* eval_bits_into, whole bulk batch, one domain *)
  reduce_ns : float;  (* reduce_into, per polynomial-path element *)
  poly_ns : float;  (* eval_into, per polynomial-path element *)
  other_ns : float;  (* kernel - poly share * (reduce + poly) *)
  shares : float array;  (* nonfinite, special, shortcut, poly; percent *)
  batch_ns : float;  (* Serve.eval_batch_into at -j 2 *)
  minor_words : float;  (* per element, Serve.eval_batch_into *)
}

let probe_reps = 15

let probe_entry snap func (g : Genlibm.t) ~src =
  let n = Bigarray.Array1.dim src in
  let dst = Genlibm.create_dst n in
  let kernel_ns =
    Trace.span "genlibm.eval_bits_into" (fun () ->
        Stats.median_ns ~reps:probe_reps (fun () ->
            Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n))
    /. float_of_int n
  in
  (* Classify each element by the branch the kernel takes. *)
  let tin = g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let family = g.Rlibm.Generate.family in
  let counts = Array.make 4 0 in
  let poly_xs = ref [] in
  for i = 0 to n - 1 do
    let x = src.{i} in
    let cls =
      if not (Softfp.is_finite tin x) then 0
      else if Hashtbl.mem g.Rlibm.Generate.specials x then 1
      else
        let xf = Softfp.to_float tin x in
        if family.Rlibm.Reduction.shortcut xf <> None then 2
        else begin
          poly_xs := xf :: !poly_xs;
          3
        end
    in
    counts.(cls) <- counts.(cls) + 1
  done;
  let xs = Float.Array.of_list !poly_xs in
  let m = Float.Array.length xs in
  let rs = Float.Array.create m and pieces = Array.make m 0 in
  let s = Rlibm.Reduction.scratch () in
  let reduce_all () =
    for i = 0 to m - 1 do
      s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- Float.Array.unsafe_get xs i;
      family.Rlibm.Reduction.reduce_into s;
      Float.Array.unsafe_set rs i s.Rlibm.Reduction.sf.Rlibm.Reduction.sr;
      Array.unsafe_set pieces i s.Rlibm.Reduction.spiece
    done
  in
  let per_elem ns = if m = 0 then 0.0 else ns /. float_of_int m in
  let reduce_ns =
    per_elem
      (Trace.span "reduction.reduce_into" (fun () ->
           Stats.median_ns ~reps:probe_reps reduce_all))
  in
  (* Pack the reduced inputs per piece, as the kernel's gather does. *)
  let npieces = Array.length g.Rlibm.Generate.pieces in
  let groups =
    Array.init npieces (fun p ->
        let l = ref [] in
        for i = m - 1 downto 0 do
          if pieces.(i) = p then l := Float.Array.get rs i :: !l
        done;
        Float.Array.of_list !l)
  in
  let out = Float.Array.create (max 1 m) in
  let scheme = g.Rlibm.Generate.scheme in
  let poly_ns =
    per_elem
      (Trace.span "polyeval.eval_into" (fun () ->
           Stats.median_ns ~reps:probe_reps (fun () ->
               Array.iteri
                 (fun p grp ->
                   Polyeval.eval_into scheme
                     g.Rlibm.Generate.pieces.(p).Polyeval.data
                     ~src:grp ~dst:out ~lo:0 ~hi:(Float.Array.length grp))
                 groups)))
  in
  let shares = Array.map (fun c -> 100.0 *. float_of_int c /. float_of_int n) counts in
  let batch () = Serve.eval_batch_into snap func ~src ~dst in
  let batch_ns =
    Trace.span "serve.eval_batch_into" (fun () -> Stats.median_ns ~reps:probe_reps batch)
    /. float_of_int n
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to probe_reps do
    batch ()
  done;
  let minor_words = (Gc.minor_words () -. w0) /. float_of_int (probe_reps * n) in
  {
    kernel_ns;
    reduce_ns;
    poly_ns;
    other_ns = kernel_ns -. (shares.(3) /. 100.0 *. (reduce_ns +. poly_ns));
    shares;
    batch_ns;
    minor_words;
  }

(* ---------- the run ---------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 l)

let run ~workload ~snapshots ~seed ~seconds ~trace ~size =
  Parallel.set_jobs jobs;
  ignore (fresh_store () : string);
  info "workload %s seed %d seconds %g trace %b jobs %d" workload seed seconds trace jobs;
  (* Generation: wall time from an empty store to every verdict. *)
  let cpu0 = cpu_s () and jiffies0 = host_jiffies () in
  let t0 = Stats.now_ns () in
  let gens =
    Trace.span "bench.generate" (fun () ->
        List.map
          (fun (func, scheme) -> generate ~cfg:(cfg_for size func) ~scheme func)
          (List.concat snapshots))
  in
  let gen_s = Stats.elapsed_ns t0 *. 1e-9 in
  phase_note "generate" ~wall:gen_s ~cpu0 ~jiffies0;
  let t1 = Stats.now_ns () in
  ignore (build_snapshots ~size snapshots : Serve.t array);
  let build_s = Stats.elapsed_ns t1 *. 1e-9 in
  (* The store started empty and every artifact is published once, so
     its file count is the number of publishes. *)
  let cache = Cache.stats () in
  let publishes = Array.length (Sys.readdir (Cache.dir ())) in
  (* The snapshots every request is served from: a warm restart. *)
  let snaps = build_snapshots ~size snapshots in
  let entries =
    List.concat
      (List.mapi
         (fun i snap ->
           List.map
             (fun (func, scheme) ->
               let se = Option.get (Serve.find snaps.(i) func) in
               let cfg = se.Serve.e_cfg in
               let oracle =
                 Rlibm.Constraints.oracle_table ~func ~tin:cfg.Rlibm.Config.tin
                   ~tout:(Rlibm.Config.tout cfg)
               in
               let reference =
                 Trace.span "check.reference" (fun () ->
                     Check.reference se.Serve.e_impl ~oracle)
               in
               checked := !checked + Array.length reference.Check.ok;
               wrong := !wrong + Check.wrong_in_reference reference;
               {
                 snap = i;
                 e_func = func;
                 e_scheme = scheme;
                 impl = se.Serve.e_impl;
                 reference;
                 bulk = ref [];
                 small = ref [];
               })
             snap)
         snapshots)
    |> Array.of_list
  in
  (* The seeded request stream over every (function, scheme) entry.
     Each request draws fresh patterns, outside the timed call, so no
     input is ever served twice from a warm cache. *)
  let width = Softfp.width (cfg_for size Oracle.Exp2).Rlibm.Config.tin in
  let st = Random.State.make [| seed; 0x5e7e |] in
  let bulk_src = Genlibm.create_src (1 lsl bulk_pow) in
  let small_src = Genlibm.create_src small_n in
  let dst = Genlibm.create_dst (1 lsl bulk_pow) in
  let next_request () =
    let e = entries.(Random.State.int st (Array.length entries)) in
    let is_bulk = Random.State.int st bulk_every = 0 in
    let src = if is_bulk then bulk_src else small_src in
    fill_random st ~width src;
    (e, is_bulk, src)
  in
  (* Set-up samples: warm restarts, what a serving process pays at
     start.  They are spread evenly over the request stream, so a slow
     phase of the host weighs on set-up as much as on serving. *)
  let setup = Array.make setup_samples 0.0 and n_setup = ref 0 in
  let setup_sample () =
    let t0 = Stats.now_ns () in
    for _ = 1 to setup_batch do
      ignore (build_snapshots ~size snapshots : Serve.t array)
    done;
    setup.(!n_setup) <- Stats.elapsed_ns t0 *. 1e-9 /. float_of_int setup_batch;
    incr n_setup
  in
  let cpu0 = cpu_s () and jiffies0 = host_jiffies () in
  let t0 = Stats.now_ns () in
  let requests = ref 0 in
  Trace.span "bench.serve" (fun () ->
      while
        !requests < 2 * Array.length entries
        || !n_setup < setup_samples
        || Stats.elapsed_ns t0 < seconds *. 1e9
      do
        if
          !n_setup < setup_samples
          && Stats.elapsed_ns t0
             >= float_of_int !n_setup *. seconds *. 1e9 /. float_of_int setup_samples
        then setup_sample ();
        let e, is_bulk, src = next_request () in
        let t = serve_request snaps e ~src ~dst in
        let l = if is_bulk then e.bulk else e.small in
        l := t :: !l;
        incr requests
      done);
  phase_note "serve" ~wall:(Stats.elapsed_ns t0 *. 1e-9) ~cpu0 ~jiffies0;
  attempted := !attempted + !requests;
  info "set-up: %d samples of %d restarts, p25 %.1f us, p50 %.1f us, p75 %.1f us"
    setup_samples setup_batch
    (Stats.percentile setup 25.0 *. 1e6)
    (Stats.median setup *. 1e6)
    (Stats.percentile setup 75.0 *. 1e6);
  (* ---- end-to-end metrics ---- *)
  let per_entry f sel = List.map (fun e -> f (Array.of_list !(sel e))) (Array.to_list entries) in
  let bulk_n = float_of_int (1 lsl bulk_pow) in
  let ns_p50 = per_entry (fun a -> Stats.median a /. bulk_n) (fun e -> e.bulk) in
  let ns_tail = per_entry (fun a -> Stats.percentile a bulk_tail /. bulk_n) (fun e -> e.bulk) in
  let us_p50 = per_entry (fun a -> Stats.median a /. 1e3) (fun e -> e.small) in
  let us_tail = per_entry (fun a -> Stats.percentile a small_tail /. 1e3) (fun e -> e.small) in
  Array.iteri
    (fun i e ->
      let nb = List.length !(e.bulk) and ns = List.length !(e.small) in
      info
        "serve %-17s bulk: %d samples, p50 %.3f ns/eval, p%g %.3f ns/eval (%d beyond); \
         small: %d samples, p50 %.3f us, p%g %.3f us (%d beyond)"
        (name_of e.e_func e.e_scheme) nb (List.nth ns_p50 i) bulk_tail (List.nth ns_tail i)
        (Stats.beyond nb bulk_tail) ns (List.nth us_p50 i) small_tail (List.nth us_tail i)
        (Stats.beyond ns small_tail);
      if Stats.beyond nb bulk_tail < 10 || Stats.beyond ns small_tail < 10 then
        info "warning: fewer than 10 samples beyond a tail percentile; raise --seconds")
    entries;
  List.iter
    (fun scheme ->
      let l =
        List.filteri (fun i _ -> entries.(i).e_scheme = scheme) ns_p50
      in
      if l <> [] then
        info "metric serve_ns_per_eval.%s = %.4f ns" (Polyeval.scheme_name scheme)
          (Stats.geomean l))
    Polyeval.all_schemes;
  info "metric specials = %.0f count"
    (sumi (fun gn -> Rlibm.Generate.n_specials gn.g) gens);
  info "metric degree_sum = %.0f count"
    (sumi (fun gn -> Array.fold_left ( + ) 0 gn.g.Rlibm.Generate.degrees) gens);
  (* Tails are printed, not bounded: on a shared VM they measure the
     host's steal bursts more than the program. *)
  info "metric serve_ns_per_eval_p%g = %.4f ns" bulk_tail (Stats.geomean ns_tail);
  info "metric serve_small_us_p%g = %.4f us" small_tail (Stats.geomean us_tail);
  info "metric results_checked = %d count" !checked;
  info "metric wrong_results = %d count" !wrong;
  metric e2e "setup_s" "s" (Stats.median setup);
  metric e2e "gen_s" "s" gen_s;
  metric e2e "serve_ns_per_eval" "ns" (Stats.geomean ns_p50);
  metric e2e "serve_small_us_p50" "us" (Stats.geomean us_p50);
  (* ---- per-layer metrics (traced run) ---- *)
  if trace then begin
    let self = Trace.self_s in
    let oracle_s = self "pipeline.oracle_stage" in
    let poly_s = self "pipeline.generate" in
    let verdict_s = self "pipeline.verified" in
    let constraints_s = self "pipeline.intervals_stage" +. self "pipeline.constraints_stage" in
    let evals = sumi (fun gn -> gn.oracle_evals) gens in
    let checks =
      sumi (fun gn -> gn.report.Genlibm.checked + gn.report.Genlibm.narrow_checks) gens
    in
    metric layer "pipeline.oracle_s" "s" oracle_s;
    metric layer "oracle.evals" "count" evals;
    metric layer "oracle.us_per_eval" "us" (if evals > 0.0 then oracle_s /. evals *. 1e6 else 0.0);
    metric layer "constraints.s" "s" constraints_s;
    metric layer "pipeline.poly_s" "s" poly_s;
    metric layer "pipeline.lp_share" "%" (100.0 *. poly_s /. gen_s);
    info "lp_share base: poly_s %.3f s of gen_s %.3f s" poly_s gen_s;
    metric layer "pipeline.verdict_s" "s" verdict_s;
    metric layer "genlibm.verify_ns_per_check" "ns" (verdict_s /. checks *. 1e9);
    metric layer "generate.rounds" "count"
      (sumi (fun gn -> Array.fold_left ( + ) 0 gn.g.Rlibm.Generate.rounds) gens);
    metric layer "generate.constraint_points" "count"
      (sumi (fun gn -> Array.fold_left ( + ) 0 gn.g.Rlibm.Generate.n_constraints) gens);
    metric layer "generate.degree_sum" "count"
      (sumi (fun gn -> Array.fold_left ( + ) 0 gn.g.Rlibm.Generate.degrees) gens);
    let coverage = 100.0 *. (oracle_s +. constraints_s +. poly_s +. verdict_s) /. gen_s in
    (* Probes and microbenchmarks: after the timed part, never part of
       an end-to-end metric. *)
    Trace.span "bench.probes" (fun () ->
        let probes = lp_probe gens in
        metric layer "lp.probe_s" "s" (sum fst probes);
        metric layer "lp.probe_working_set" "count" (sumi snd probes);
        List.iter (fun (n, v) -> metric layer n "us" v) (Micro.bigint_ops ~seed);
        List.iter (fun (n, v) -> metric layer n "us" v) (Micro.rat_ops ~seed);
        metric layer "cache.bytes_written" "bytes" (float_of_int cache.Cache.bytes_written);
        metric layer "cache.publishes" "count" (float_of_int publishes);
        (* Retries happen only under injected or real I/O faults: 0 on a
           healthy store, so printed rather than a metric. *)
        info "metric cache.retried = %d count" cache.Cache.retried;
        info "cache: %s" (Format.asprintf "%a" Cache.pp_stats cache);
        let warm_s =
          sum
            (fun gn ->
              Rlibm.Constraints.clear_memory_cache ();
              Stats.time_ns (fun () ->
                  ignore
                    (ok_or "warm"
                       (Trace.span "cache.warm" (fun () ->
                            Pipeline.verified ~cfg:gn.cfg ~scheme:gn.scheme gn.func))))
              *. 1e-9)
            gens
        in
        metric layer "cache.warm_s" "s" warm_s;
        metric layer "serve.build_s" "s" build_s;
        (* The kernel split, per entry, first for the workload's own
           entries and then for the fixed probe entries it lacks. *)
        let probe_src =
          random_src (Random.State.make [| seed; 0x9b0be |]) ~width (1 lsl bulk_pow)
        in
        let probed = Hashtbl.create 8 in
        let probe snap func scheme impl =
          let nm = Oracle.name func ^ "." ^ Polyeval.scheme_name scheme in
          match Hashtbl.find_opt probed nm with
          | Some p -> p
          | None ->
              let p = probe_entry snap func impl ~src:probe_src in
              Hashtbl.add probed nm p;
              info
                "layer %-17s kernel %.3f ns, reduction %.3f ns, polyeval %.3f ns, \
                 other %.3f ns (difference), paths nonfinite/special/shortcut/poly \
                 %.2f/%.2f/%.2f/%.2f %%"
                nm p.kernel_ns p.reduce_ns p.poly_ns p.other_ns p.shares.(0)
                p.shares.(1) p.shares.(2) p.shares.(3);
              p
        in
        let kp =
          Array.map (fun e -> probe snaps.(e.snap) e.e_func e.e_scheme e.impl) entries
        in
        let probe_snaps =
          if snapshots = probe_snapshots then snaps
          else begin
            (* Cold generation of the missing entries: untraced, so the
               pipeline's span totals stay the workload's own. *)
            Trace.enabled := false;
            let s = build_snapshots ~size probe_snapshots in
            Trace.enabled := true;
            s
          end
        in
        List.iteri
          (fun i snap ->
            List.iter
              (fun (func, scheme) ->
                let se = Option.get (Serve.find probe_snaps.(i) func) in
                let p = probe probe_snaps.(i) func scheme se.Serve.e_impl in
                let fs = Oracle.name func and sc = Polyeval.scheme_name scheme in
                let fss = fs ^ "." ^ sc in
                metric layer ("genlibm.kernel_ns_per_eval." ^ fss) "ns" p.kernel_ns;
                metric layer ("polyeval.ns_per_eval." ^ fss) "ns" p.poly_ns;
                metric layer ("genlibm.other_ns_per_eval." ^ fss) "ns" p.other_ns)
              snap)
          probe_snapshots;
        (* Reduction and branch shares do not depend on the scheme: one
           value per function, over the probe entries that serve it. *)
        List.iter
          (fun func ->
            let ps =
              Hashtbl.fold
                (fun nm p acc ->
                  if String.starts_with ~prefix:(Oracle.name func ^ ".") nm then p :: acc
                  else acc)
                probed []
            in
            let fs = Oracle.name func in
            metric layer ("reduction.ns_per_eval." ^ fs) "ns"
              (Stats.mean (List.map (fun p -> p.reduce_ns) ps));
            (* Special-table hits are 0 (no generated function has special
               inputs on the mini universe), so that share is printed, not
               a metric. *)
            List.iteri
              (fun k nm ->
                let share = (List.hd ps).shares.(k) in
                if nm = "special" then info "serve.path_share.%s.special = %g %%" fs share
                else metric layer (Printf.sprintf "serve.path_share.%s.%s" fs nm) "%" share)
              [ "nonfinite"; "special"; "shortcut"; "poly" ])
          probe_funcs;
        let g f = Stats.geomean (Array.to_list (Array.map f kp)) in
        let avg f = Stats.mean (Array.to_list (Array.map f kp)) in
        let kernel = g (fun p -> p.kernel_ns) in
        metric layer "parallel.speedup" "x" (kernel /. g (fun p -> p.batch_ns));
        metric layer "serve.small_overhead_us" "us"
          (Stats.geomean us_p50 -. (float_of_int small_n *. kernel /. 1e3));
        metric layer "serve.minor_words_per_eval" "words" (avg (fun p -> p.minor_words));
        List.iter
          (fun (n, v) -> metric layer n "ns" v)
          (Trace.span "polyeval.matched" (fun () -> Micro.matched_polyeval ~seed));
        (* Tracing overhead: the same small requests with span recording
           on and off, alternating blocks. *)
        let small_pool = Array.init 64 (fun _ -> random_src st ~width small_n) in
        let block traced =
          Trace.enabled := traced;
          let t =
            Stats.time_ns (fun () ->
                for i = 0 to 199 do
                  ignore
                    (serve_request snaps entries.(0)
                       ~src:small_pool.(i mod Array.length small_pool)
                       ~dst
                      : float)
                done)
          in
          Trace.enabled := true;
          t
        in
        let on = Array.make 15 0.0 and off = Array.make 15 0.0 in
        for i = 0 to 14 do
          off.(i) <- block false;
          on.(i) <- block true
        done;
        metric layer "trace.overhead_pct" "%"
          (100.0 *. ((Stats.median on /. Stats.median off) -. 1.0)));
    metric layer "trace.gen_coverage_pct" "%" coverage;
    List.iter
      (fun (name, (n, total, self)) ->
        info "span %-28s n=%-6d total %.6f s  self %.6f s" name n total self)
      (Trace.fold ());
    let path = Filename.concat work_dir (Printf.sprintf "spans-%s.jsonl" workload) in
    Trace.write path;
    info "wrote %d spans to %s" (List.length (Trace.spans ())) path
  end;
  metric e2e "peak_rss_mb" "MB" (peak_rss_mb ())

(* ---------- self-test of the correctness gate ---------- *)

(* A deliberately flipped output bit must count as exactly one wrong
   result, and the unmodified outputs as none. *)
let self_test () =
  Parallel.set_jobs jobs;
  ignore (fresh_store () : string);
  let func = Oracle.Exp2 and scheme = Polyeval.EstrinFma in
  let cfg = cfg_for Tiny func in
  let snap = ok_or "Serve.build" (Serve.build [ (func, scheme, cfg) ]) in
  let impl = (Option.get (Serve.find snap func)).Serve.e_impl in
  let oracle =
    Rlibm.Constraints.oracle_table ~func ~tin:cfg.Rlibm.Config.tin
      ~tout:(Rlibm.Config.tout cfg)
  in
  let r = Check.reference impl ~oracle in
  let n = 1 lsl Softfp.width cfg.Rlibm.Config.tin in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  for i = 0 to n - 1 do
    src.{i} <- Int64.of_int ((i * 37) land (n - 1))
  done;
  Serve.eval_batch_into snap func ~src ~dst;
  let clean = Check.count_wrong r ~src ~dst n in
  let i = ref 0 in
  while not (Float.is_finite dst.{!i} && dst.{!i} <> 0.0) do
    incr i
  done;
  dst.{!i} <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float dst.{!i}) (Int64.shift_left 1L 51));
  let flipped = Check.count_wrong r ~src ~dst n in
  info "self-test: %d wrong before the flip, %d after (reference: %d wrong)" clean flipped
    (Check.wrong_in_reference r);
  if clean = 0 && flipped = 1 && Check.wrong_in_reference r = 0 then info "self-test ok"
  else exit 1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload gen-log|serve --seed N --seconds S \
     --trace 0|1 [--size mini|tiny]\n       bench.exe --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  if List.mem "--self-test" args then self_test ()
  else
    let workload = Option.value ~default:"" (opt "--workload" args) in
    let snapshots = match List.assoc_opt workload workloads with Some s -> s | None -> usage () in
    let int_arg name = match Option.bind (opt name args) int_of_string_opt with Some v -> v | None -> usage () in
    let seed = int_arg "--seed" in
    let seconds =
      match Option.bind (opt "--seconds" args) float_of_string_opt with
      | Some s when s > 0.0 -> s
      | _ -> usage ()
    in
    let trace = match opt "--trace" args with Some "0" -> false | Some "1" -> true | _ -> usage () in
    let size =
      match opt "--size" args with
      | None | Some "mini" -> Mini
      | Some "tiny" -> Tiny
      | Some _ -> usage ()
    in
    Trace.enabled := trace;
    (try run ~workload ~snapshots ~seed ~seconds ~trace ~size
     with Failed msg ->
       incr failed;
       info "FAILED: %s" msg);
    failed := !failed + !wrong;
    print_result ~trace;
    if !failed > 0 then exit 1
