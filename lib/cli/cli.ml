open Cmdliner

let func_conv =
  let parse s =
    (* Funcspec.resolve rather than of_name: an unknown name should
       carry its typo suggestion into the usage error. *)
    match Funcspec.resolve s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg (Diag.Error.to_string e))
  in
  let print fmt f = Format.pp_print_string fmt (Oracle.name f) in
  Arg.conv (parse, print)

let scheme_conv =
  let parse s =
    match Polyeval.scheme_of_name s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print fmt s = Format.pp_print_string fmt (Polyeval.scheme_name s) in
  Arg.conv (parse, print)

let func_arg =
  Arg.(
    value
    & opt (some func_conv) None
    & info [ "func"; "f" ]
        ~doc:"Function: exp, exp2, exp10, log, log2, log10.")

let func_list_arg =
  Arg.(
    value
    & opt_all func_conv []
    & info [ "func"; "f" ]
        ~doc:
          "Function to include (repeatable: $(b,--func exp2 --func log2)); \
           absent means all six.")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Polyeval.EstrinFma
    & info [ "scheme"; "s" ]
        ~doc:"Evaluation scheme: horner, horner-fma, knuth, estrin, \
              estrin-fma.")

let ebits_arg =
  Arg.(
    value & opt int 5
    & info [ "ebits" ] ~doc:"Exponent bits of the input format.")

let prec_arg =
  Arg.(
    value & opt int 8
    & info [ "prec" ]
        ~doc:"Precision (significand bits incl. hidden) of the input format.")

let shards_arg =
  let doc =
    "Split the oracle stage into $(docv) fixed, content-keyed shard \
     artifacts (kind oracle-shard).  Published shards are loaded, never \
     recomputed, so a killed warm resumes where it stopped and several \
     processes can fill one store cooperatively.  The merged table is \
     bit-identical to an unsharded run."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"S" ~doc)

let shard_spec_conv =
  let parse s =
    let bad () =
      Error
        (`Msg
          (Printf.sprintf "bad shard spec %S (expected K/S with 0 <= K < S)" s))
    in
    match String.index_opt s '/' with
    | None -> bad ()
    | Some i -> (
        let k = String.sub s 0 i
        and n = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt k, int_of_string_opt n) with
        | Some k, Some n when n >= 1 && k >= 0 && k < n -> Ok (k, n)
        | _ -> bad ())
  in
  let print fmt (k, n) = Format.fprintf fmt "%d/%d" k n in
  Arg.conv (parse, print)

let shard_arg =
  let doc =
    "Warm exactly oracle shard K of S and stop (implies a shard count of \
     S; for distributed drivers that give each invocation one shard).  \
     Only meaningful with $(b,--through oracle)."
  in
  Arg.(
    value
    & opt (some shard_spec_conv) None
    & info [ "shard" ] ~docv:"K/S" ~doc)

(* Reconcile --shards S and --shard K/S: the spec's S wins but must not
   contradict an explicit --shards. *)
let resolve_shards ~shards ~shard =
  match (shards, shard) with
  | None, None -> (1, None)
  | Some s, None ->
      if s < 1 then begin
        Printf.eprintf "bad --shards value %d (must be >= 1)\n" s;
        exit 2
      end;
      (s, None)
  | None, Some (k, s) -> (s, Some k)
  | Some s, Some (k, s') ->
      if s <> s' then begin
        Printf.eprintf "--shards %d contradicts --shard %d/%d\n" s k s';
        exit 2
      end;
      (s, Some k)

let jobs_arg =
  let doc =
    "Fan the oracle construction, generation loop and verification out over \
     $(docv) domains (deterministic: the output is bit-identical for every \
     value).  Precedence: this flag, else $(b,RLIBM_JOBS), else the \
     machine's core count; 1 takes the exact sequential code path."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Directory of the persistent artifact store (overrides \
     $(b,RLIBM_CACHE_DIR); default ./.oracle-cache).  Set \
     $(b,RLIBM_NO_DISK_CACHE=1) to disable persistence entirely."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_stats_arg =
  let doc =
    "After the run, print the artifact store counters (hits, misses, \
     corrupt-rejected, bytes read/written — global and per artifact kind) \
     to stderr.  A nonzero corrupt-rejected count means entries failed \
     header or checksum validation, were quarantined aside as *.corrupt-*, \
     and were regenerated from scratch."
  in
  Arg.(value & flag & info [ "cache-stats" ] ~doc)

(* ---------- diagnostics plumbing ---------- *)

let log_level_conv =
  let parse s =
    match Diag.level_of_string s with
    | Ok l -> Ok l
    | Error e -> Error (`Msg (Diag.Error.to_string e))
  in
  let print fmt l = Format.pp_print_string fmt (Diag.level_to_string l) in
  Arg.conv (parse, print)

let log_level_arg =
  let doc =
    "Verbosity of the human-readable diagnostic stream on stderr: \
     $(b,quiet), $(b,error), $(b,warn) (default), $(b,info) (stage and \
     store activity, shard.done, gen.degree per degree tried, \
     lp.system and lp.solved with their seconds, serve.snapshot), \
     $(b,debug) (gen.round and lp.round per round, the LP tableau's \
     largest entry, parallel fan-out, batch evals).  Diagnostics never \
     touch stdout and never influence artifacts."
  in
  Arg.(value & opt log_level_conv Diag.Warn & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let trace_arg =
  let doc =
    "Also write every diagnostic event (at debug granularity, regardless \
     of $(b,--log-level)) to $(docv) as JSON Lines: a schema-versioned \
     header object, then one object per event with timestamp, level, \
     span/parent ids and typed fields."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let exit_error err =
  Printf.eprintf "rlibm: %s\n%!" (Diag.Error.to_string err);
  exit (Diag.Error.exit_code err)

let install_diag ?(jobs = 1) ~level ~trace () =
  let stderr_sinks =
    match level with Diag.Quiet -> [] | l -> [ Diag.stderr_sink ~min_level:l ]
  in
  match trace with
  | None -> Diag.set_sinks stderr_sinks
  | Some path -> (
      match Diag.trace_sink ~jobs path with
      | Ok sink -> Diag.set_sinks (sink :: stderr_sinks)
      | Error e -> exit_error e)

let set_jobs jobs =
  Parallel.set_jobs
    (match jobs with Some j -> j | None -> Parallel.default_jobs ())

let set_cache_dir = function Some d -> Cache.set_dir d | None -> ()

let report_cache_stats enabled =
  if enabled then Format.eprintf "%a@." Cache.pp_report ()
