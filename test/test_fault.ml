(* Fault-injection substrate and crash consistency: plan syntax,
   EINTR/short/torn write handling, bounded transient retry, stale-temp
   reaping, fsck semantics, warm's publish-failure reporting, and the
   kill-point sweep — abort a child generation at every mutating store
   site and assert the store stays loadable and a resumed run is
   bit-identical to an uninterrupted one. *)

(* Run [f] against a fresh store directory, removed afterwards (other
   suites share the process). *)
let in_fresh_dir f = Test_tmp.with_store "rlibm-fault-test-" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let plan_of spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" spec msg

let tiny_cfg = Test_tmp.tiny_cfg

(* A silent sink so injected-failure warns do not spam the test log;
   returns the drained events for assertions. *)
let with_quiet_sink f =
  let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
  let v = Diag.with_sinks [ sink ] f in
  (v, drain ())

(* ---------- plan syntax ---------- *)

let test_plan_syntax () =
  List.iter
    (fun spec ->
      let p = plan_of spec in
      Alcotest.(check string)
        (Printf.sprintf "round-trip %s" spec)
        spec (Fault.to_spec p))
    [
      "write@1+=enospc";
      "mut@7=abort";
      "write@2=torn:5";
      "any@3=eio,read@2=short:4,fsync@1=eintr";
      "rename@1=eagain";
      "fsync@2+=eio";
      "mkdir@1=enospc";
      "open@4=abort";
    ];
  (* whitespace-tolerant *)
  Alcotest.(check int) "spaces accepted" 2
    (List.length (plan_of "write@1=eio, read@2=short:4"));
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bogus plan %S accepted" bad)
    [
      "write@0=eio" (* sites are 1-based *);
      "write@1=ebadf" (* unknown action *);
      "bogus@1=eio" (* unknown selector *);
      "write@1" (* no action *);
      "write=eio" (* no site *);
      "write@1=short:0" (* short must make progress *);
      "write@1=short:x";
    ]

(* ---------- EINTR and short transfers are absorbed ---------- *)

let test_eintr_and_short_transfers () =
  in_fresh_dir (fun _d ->
      Cache.reset_stats ();
      let value = List.init 200 (fun i -> i * i) in
      let plan =
        plan_of "write@1=eintr,write@2=short:3,read@1=eintr,read@2=short:4"
      in
      let (), _ =
        with_quiet_sink (fun () ->
            Fault.with_plan plan (fun () ->
                (match Cache.store ~kind:"test" ~key:"eintr-short" value with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "store under EINTR/short failed: %s"
                      (Diag.Error.to_string e));
                match
                  (Cache.load ~kind:"test" ~key:"eintr-short"
                    : (int list option, Diag.Error.t) result)
                with
                | Ok (Some v) ->
                    Alcotest.(check bool) "value round-trips" true (v = value)
                | Ok None -> Alcotest.fail "entry missing after store"
                | Error e ->
                    Alcotest.failf "load under EINTR/short failed: %s"
                      (Diag.Error.to_string e)))
      in
      (* EINTR restarts and short-transfer continuations are not
         retries: the loops absorb them silently. *)
      Alcotest.(check int) "no retry counted" 0 (Cache.stats ()).Cache.retried)

(* ---------- bounded deterministic retry ---------- *)

let test_transient_retry_recovers () =
  in_fresh_dir (fun _d ->
      Cache.reset_stats ();
      let (), evs =
        with_quiet_sink (fun () ->
            Fault.with_plan (plan_of "write@1=eio") (fun () ->
                match Cache.store ~kind:"test" ~key:"one-eio" [ 1; 2; 3 ] with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "single transient EIO not absorbed: %s"
                      (Diag.Error.to_string e)))
      in
      Alcotest.(check int) "one retry counted" 1 (Cache.stats ()).Cache.retried;
      (match List.assoc_opt "test" (Cache.stats_by_kind ()) with
      | Some s -> Alcotest.(check int) "per-kind retry" 1 s.Cache.retried
      | None -> Alcotest.fail "no per-kind stats");
      Alcotest.(check bool) "cache.retry event emitted" true
        (List.exists (fun ev -> ev.Diag.ev_name = "cache.retry") evs);
      match
        (Cache.load ~kind:"test" ~key:"one-eio"
          : (int list option, Diag.Error.t) result)
      with
      | Ok (Some v) -> Alcotest.(check bool) "published" true (v = [ 1; 2; 3 ])
      | _ -> Alcotest.fail "entry not readable after retried publish")

let test_sticky_enospc_surfaces_store_io () =
  in_fresh_dir (fun d ->
      Cache.reset_stats ();
      let r, _ =
        with_quiet_sink (fun () ->
            Fault.with_plan (plan_of "write@1+=enospc") (fun () ->
                Cache.store ~kind:"test" ~key:"nospace" [ 9; 9; 9 ]))
      in
      (match r with
      | Error (Diag.Error.Store_io { detail; _ }) ->
          Alcotest.(check bool) "detail names the errno" true
            (contains ~sub:"space" (String.lowercase_ascii detail))
      | Error e ->
          Alcotest.failf "expected Store_io, got %s" (Diag.Error.to_string e)
      | Ok () -> Alcotest.fail "sticky ENOSPC store succeeded");
      (* 3 attempts = 2 retries, deterministic *)
      Alcotest.(check int) "retry budget spent" 2
        (Cache.stats ()).Cache.retried;
      (* nothing published, no temp litter (the failed attempts clean
         their own temps) *)
      Alcotest.(check (list string)) "no files left" []
        (Array.to_list (Sys.readdir d));
      match
        (Cache.load ~kind:"test" ~key:"nospace"
          : (int list option, Diag.Error.t) result)
      with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom entry after failed store"
      | Error e -> Alcotest.failf "load failed: %s" (Diag.Error.to_string e))

(* A torn write (crash mid-write model) must never publish: the entry
   either does not exist or validates — never garbage. *)
let test_torn_write_never_publishes () =
  in_fresh_dir (fun d ->
      let r, _ =
        with_quiet_sink (fun () ->
            Fault.with_plan (plan_of "write@1+=torn:5") (fun () ->
                Cache.store ~kind:"test" ~key:"torn" (Array.make 64 3.14)))
      in
      (match r with
      | Error (Diag.Error.Store_io _) -> ()
      | Error e ->
          Alcotest.failf "expected Store_io, got %s" (Diag.Error.to_string e)
      | Ok () -> Alcotest.fail "torn store reported success");
      Alcotest.(check (list string)) "no published or temp file" []
        (Array.to_list (Sys.readdir d)))

(* ---------- mutating-site census ---------- *)

let test_mut_census_is_stable () =
  let census () =
    in_fresh_dir (fun _d ->
        Fault.with_plan [] (fun () ->
            (match Cache.store ~kind:"test" ~key:"census" [ 42 ] with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "store failed: %s" (Diag.Error.to_string e));
            Fault.mut_sites ()))
  in
  let a = census () in
  Alcotest.(check bool) "publish exposes kill-points" true (a >= 4);
  Alcotest.(check int) "census is deterministic" a (census ());
  Alcotest.(check int) "no plan, no census" 0 (Fault.mut_sites ())

(* ---------- stale temp reaping ---------- *)

let test_stale_temps_reaped_on_first_touch () =
  in_fresh_dir (fun d ->
      let dead = Filename.concat d "key-a.tmp-999999-0" in
      let own =
        Filename.concat d
          (Printf.sprintf "key-b.tmp-%d-7" (Unix.getpid ()))
      in
      let aged = Filename.concat d "key-c.tmp-x-1" in
      List.iter (fun p -> write_file p "leftover") [ dead; own; aged ];
      (* unparseable pid: age decides; make it ancient *)
      Unix.utimes aged 1.0 1.0;
      let (), evs =
        with_quiet_sink (fun () ->
            match Cache.store ~kind:"test" ~key:"trigger" [ 1 ] with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "store failed: %s" (Diag.Error.to_string e))
      in
      Alcotest.(check bool) "dead writer's temp reaped" false
        (Sys.file_exists dead);
      Alcotest.(check bool) "ancient temp reaped" false (Sys.file_exists aged);
      Alcotest.(check bool) "own live temp kept" true (Sys.file_exists own);
      Alcotest.(check int) "one reap event per file" 2
        (List.length
           (List.filter (fun ev -> ev.Diag.ev_name = "cache.reap-temp") evs)))

(* ---------- fsck ---------- *)

let fsck_ok ?repair ?max_age () =
  match Cache.fsck ?repair ?max_age () with
  | Ok r -> r
  | Error e -> Alcotest.failf "fsck failed: %s" (Diag.Error.to_string e)

let test_fsck_validates_and_quarantines () =
  in_fresh_dir (fun d ->
      (match Cache.store ~kind:"test" ~key:"good-entry" [ 1; 2; 3 ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "store failed: %s" (Diag.Error.to_string e));
      let good = Cache.path_of_key "good-entry" in
      (* a bit-flipped copy and a valid entry parked under a wrong name:
         both must be flagged against the embedded key *)
      let flipped = Filename.concat d "bad-entry" in
      let b = Bytes.of_string (read_file good) in
      Bytes.set b
        (Bytes.length b - 1)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
      write_file flipped (Bytes.to_string b);
      let misnamed = Filename.concat d "wrong-name" in
      write_file misnamed (read_file good);
      let r, _ = with_quiet_sink (fun () -> fsck_ok ()) in
      Alcotest.(check int) "three entries scanned" 3 r.Cache.fk_scanned;
      Alcotest.(check int) "one valid" 1 r.Cache.fk_valid;
      Alcotest.(check bool) "flipped and misnamed quarantined" true
        (List.map fst r.Cache.fk_quarantined = [ flipped; misnamed ]);
      Alcotest.(check bool) "reasons are specific" true
        (List.exists
           (fun (_, reason) -> contains ~sub:"checksum" reason)
           r.Cache.fk_quarantined
        && List.exists
             (fun (_, reason) -> contains ~sub:"does not match" reason)
             r.Cache.fk_quarantined);
      Alcotest.(check bool) "not clean" false (Cache.fsck_clean r);
      Alcotest.(check bool) "good entry untouched" true (Sys.file_exists good);
      Alcotest.(check bool) "bad files moved aside" true
        ((not (Sys.file_exists flipped)) && not (Sys.file_exists misnamed));
      (* quarantining already happened, so a re-scan is clean *)
      let r2, _ = with_quiet_sink (fun () -> fsck_ok ()) in
      Alcotest.(check bool) "second scan clean" true (Cache.fsck_clean r2);
      Alcotest.(check int) "good entry still valid" 1 r2.Cache.fk_valid)

let test_fsck_repair_reaps () =
  in_fresh_dir (fun d ->
      let stale = Filename.concat d "k.tmp-999999-0" in
      let corpse = Filename.concat d "k.corrupt-999999-0" in
      write_file stale "x";
      write_file corpse "y";
      Unix.utimes corpse 1.0 1.0;
      (* scan without repair: reported, kept *)
      let r, _ = with_quiet_sink (fun () -> fsck_ok ()) in
      Alcotest.(check (list string)) "stale temp reported" [ stale ]
        r.Cache.fk_stale_temps;
      Alcotest.(check (list string)) "aged quarantine reported" [ corpse ]
        r.Cache.fk_aged_corrupt;
      Alcotest.(check int) "nothing reaped without --repair" 0
        r.Cache.fk_reaped;
      Alcotest.(check bool) "files kept" true
        (Sys.file_exists stale && Sys.file_exists corpse);
      (* fresh .corrupt- files survive repair (post-mortem window) *)
      let young = Filename.concat d "k2.corrupt-999999-1" in
      write_file young "z";
      let r, _ = with_quiet_sink (fun () -> fsck_ok ~repair:true ()) in
      Alcotest.(check int) "stale temp + aged corpse reaped" 2
        r.Cache.fk_reaped;
      Alcotest.(check bool) "reaped from disk" true
        ((not (Sys.file_exists stale)) && not (Sys.file_exists corpse));
      Alcotest.(check bool) "young quarantine kept" true
        (Sys.file_exists young))

(* ---------- warm reports publish failures ---------- *)

let all_store_io errs =
  List.for_all
    (fun (_, e) ->
      match e with Diag.Error.Store_io _ -> true | _ -> false)
    errs

let test_warm_reports_enospc () =
  in_fresh_dir (fun _d ->
      Rlibm.Constraints.clear_memory_cache ();
      let r, _ =
        with_quiet_sink (fun () ->
            Fault.with_plan (plan_of "write@1+=enospc") (fun () ->
                Pipeline.warm ~through:Pipeline.Oracle
                  [ (Oracle.Exp2, tiny_cfg) ]))
      in
      match r with
      | Error e -> Alcotest.failf "warm errored: %s" (Diag.Error.to_string e)
      | Ok report ->
          Alcotest.(check int) "warm completes in memory" 1
            (List.length report.Pipeline.wm_entries);
          Alcotest.(check bool) "publish failure reported" true
            (report.Pipeline.wm_store_failed <> []);
          Alcotest.(check bool) "all failures are Store_io" true
            (all_store_io report.Pipeline.wm_store_failed))

let test_warm_reports_shard_publish_failures () =
  in_fresh_dir (fun _d ->
      Rlibm.Constraints.clear_memory_cache ();
      let r, _ =
        with_quiet_sink (fun () ->
            Fault.with_plan (plan_of "write@1+=enospc") (fun () ->
                Pipeline.warm ~through:Pipeline.Oracle ~shards:2
                  [ (Oracle.Exp2, tiny_cfg) ]))
      in
      match r with
      | Error e -> Alcotest.failf "warm errored: %s" (Diag.Error.to_string e)
      | Ok report ->
          (* two shard publishes plus the whole-table republish *)
          Alcotest.(check bool) "every failed publish reported" true
            (List.length report.Pipeline.wm_store_failed >= 3);
          Alcotest.(check bool) "all failures are Store_io" true
            (all_store_io report.Pipeline.wm_store_failed))

(* Root ignores permission bits, so a chmod-based read-only directory is
   not reliable in CI containers; a path component that is a regular
   file (ENOTDIR) fails for every uid. *)
let test_warm_reports_unwritable_store () =
  Test_tmp.with_dir "rlibm-fault-blocker-" @@ fun root ->
  let saved = Cache.dir () in
  let blocker = Filename.concat root "blocker" in
  write_file blocker "not a directory";
  Cache.set_dir (Filename.concat blocker "store");
  Fun.protect
    ~finally:(fun () -> Cache.set_dir saved)
    (fun () ->
      Rlibm.Constraints.clear_memory_cache ();
      let r, _ =
        with_quiet_sink (fun () ->
            Pipeline.warm ~through:Pipeline.Oracle [ (Oracle.Exp2, tiny_cfg) ])
      in
      match r with
      | Error e -> Alcotest.failf "warm errored: %s" (Diag.Error.to_string e)
      | Ok report ->
          Alcotest.(check bool) "unwritable store reported" true
            (report.Pipeline.wm_store_failed <> []);
          Alcotest.(check bool) "all failures are Store_io" true
            (all_store_io report.Pipeline.wm_store_failed))

(* ---------- kill-point sweep ---------- *)

(* [Unix.fork] is forbidden once any domain has ever been spawned in
   this process, so children are launched through [Sys.command] against
   the built CLI (the test_pipeline pattern). *)
let rlibm_gen_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "rlibm_gen.exe")

(* One warm child against store [dir]; logs land next to (not inside)
   the store so they never pollute store fingerprints or fsck scans. *)
let run_child ?fault ~jobs dir =
  let log = dir ^ ".log" in
  let cmd =
    Printf.sprintf
      "%s%s warm --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
       --table-bits 3 -j %d --cache-dir %s > %s 2>&1"
      (match fault with
      | Some plan -> Printf.sprintf "RLIBM_FAULT_PLAN=%s " (Filename.quote plan)
      | None -> "")
      (Filename.quote rlibm_gen_exe) jobs (Filename.quote dir)
      (Filename.quote log)
  in
  Sys.command cmd

let dump_child_log dir =
  let log = dir ^ ".log" in
  if Sys.file_exists log then prerr_string (read_file log)

(* The store's observable content: every published entry's name and
   bytes, sorted.  Temps and quarantine files are crash debris, not
   content. *)
let store_fingerprint dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun name ->
         if contains ~sub:".tmp-" name || contains ~sub:".corrupt-" name then
           None
         else
           Some (name, Digest.to_hex (Digest.string (read_file (Filename.concat dir name)))))

let test_kill_point_sweep () =
  if not (Sys.file_exists rlibm_gen_exe) then
    Alcotest.failf "rlibm_gen binary not found at %s" rlibm_gen_exe;
  Test_tmp.with_dir "rlibm-fault-sweep-" @@ fun root ->
  (* The uninterrupted control run. *)
  let control = Filename.concat root "control" in
  (try Sys.mkdir control 0o755 with Sys_error _ -> ());
  let rc = run_child ~jobs:1 control in
  if rc <> 0 then begin
    dump_child_log control;
    Alcotest.failf "control run exited %d" rc
  end;
  let control_fp = store_fingerprint control in
  Alcotest.(check bool) "control run published artifacts" true
    (control_fp <> []);
  (* Abort at every mutating site until a site number past the end of
     the run (the child then exits 0 and the sweep is exhaustive). *)
  let rec sweep site aborted =
    if site > 64 then
      Alcotest.failf "sweep did not terminate after %d sites" (site - 1)
    else begin
      let d = Filename.concat root (Printf.sprintf "site-%d" site) in
      (try Sys.mkdir d 0o755 with Sys_error _ -> ());
      let rc =
        run_child ~fault:(Printf.sprintf "mut@%d=abort" site) ~jobs:1 d
      in
      if rc = Fault.abort_exit_code then begin
        (* The interrupted store must be repairable with nothing
           quarantined: atomic publish means a kill can orphan temps
           but never expose a torn entry. *)
        let saved = Cache.dir () in
        Cache.set_dir d;
        let r, _ =
          Fun.protect
            ~finally:(fun () -> Cache.set_dir saved)
            (fun () -> with_quiet_sink (fun () -> fsck_ok ~repair:true ()))
        in
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "site %d: no torn published entry" site)
          [] r.Cache.fk_quarantined;
        (* Resume without faults, alternating job counts across sites. *)
        let jobs = if site mod 2 = 0 then 4 else 1 in
        let rc2 = run_child ~jobs d in
        if rc2 <> 0 then begin
          dump_child_log d;
          Alcotest.failf "site %d: resume at -j %d exited %d" site jobs rc2
        end;
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "site %d: resumed store = uninterrupted store" site)
          control_fp (store_fingerprint d);
        sweep (site + 1) (aborted + 1)
      end
      else if rc = 0 then begin
        (* Past the last mutating site: the fault never fired. *)
        Alcotest.(check bool)
          (Printf.sprintf "swept a real publish path (%d kill-points)" aborted)
          true (aborted >= 6);
        Alcotest.(check (list (pair string string)))
          "unfaulted sweep run matches control" control_fp
          (store_fingerprint d)
      end
      else begin
        dump_child_log d;
        Alcotest.failf "site %d: child exited %d (want %d or 0)" site rc
          Fault.abort_exit_code
      end
    end
  in
  sweep 1 0

let suite =
  [
    ("plan syntax round-trip and rejection", `Quick, test_plan_syntax);
    ("EINTR and short transfers absorbed", `Quick,
     test_eintr_and_short_transfers);
    ("single transient failure retried", `Quick, test_transient_retry_recovers);
    ("sticky ENOSPC surfaces Store_io after bounded retry", `Quick,
     test_sticky_enospc_surfaces_store_io);
    ("torn write never publishes", `Quick, test_torn_write_never_publishes);
    ("mutating-site census stable", `Quick, test_mut_census_is_stable);
    ("stale temps reaped on first store touch", `Quick,
     test_stale_temps_reaped_on_first_touch);
    ("fsck validates entries against embedded keys", `Quick,
     test_fsck_validates_and_quarantines);
    ("fsck --repair reaps temps and aged quarantine", `Quick,
     test_fsck_repair_reaps);
    ("warm reports ENOSPC publish failures", `Slow, test_warm_reports_enospc);
    ("warm reports shard publish failures", `Slow,
     test_warm_reports_shard_publish_failures);
    ("warm reports unwritable store", `Slow, test_warm_reports_unwritable_store);
    ("kill-point sweep: store survives abort at every publish site", `Slow,
     test_kill_point_sweep);
  ]
