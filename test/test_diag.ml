(* The diagnostics substrate: typed error paths (corrupt snapshot,
   unwritable store, shard range), the event/span layer (nesting, levels,
   zero-cost gating) and the JSONL trace sink.  The pipeline-facing
   acceptance check lives here too: a warm run emits stage spans with
   hit status only. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let dir_counter = ref 0

let fresh_tmp_name prefix =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dir_counter)

(* Run [f] against a fresh store directory, removed afterwards (other
   suites share the process). *)
let in_fresh_dir f = Test_tmp.with_store "rlibm-diag-test-" f

let tiny_cfg = Test_tmp.tiny_cfg

(* ---------- error domain basics ---------- *)

let test_levels () =
  List.iter
    (fun l ->
      match Diag.level_of_string (Diag.level_to_string l) with
      | Ok l' -> Alcotest.(check bool) (Diag.level_to_string l) true (l = l')
      | Error e ->
          Alcotest.failf "%s did not round-trip: %s" (Diag.level_to_string l)
            (Diag.Error.to_string e))
    [ Diag.Quiet; Diag.Error; Diag.Warn; Diag.Info; Diag.Debug ];
  match Diag.level_of_string "loud" with
  | Error (Diag.Error.Bad_config _) -> ()
  | Error e ->
      Alcotest.failf "expected Bad_config, got %s" (Diag.Error.to_string e)
  | Ok _ -> Alcotest.fail "bogus level accepted"

let test_exit_codes () =
  let codes =
    List.map Diag.Error.exit_code
      [
        Diag.Error.Bad_config { what = "x" };
        Diag.Error.Bad_spec { name = "x"; suggestion = None };
        Diag.Error.Shard_range { index = 9; count = 4 };
        Diag.Error.Store_io { path = "p"; detail = "d" };
        Diag.Error.Corrupt_artifact { kind = "k"; key = "x"; reason = "r" };
        Diag.Error.Key_mismatch { kind = "k"; key = "x" };
        Diag.Error.Stage_conflict { stage = "poly"; key = "x"; detail = "d" };
        Diag.Error.Lp_infeasible
          { func = "exp2"; scheme = "estrin"; piece = 0; degree = 3 };
        Diag.Error.Budget_exhausted
          { func = "exp2"; scheme = "estrin"; piece = 0; max_degree = 3 };
        Diag.Error.Verification_failed
          { func = "exp2"; scheme = "estrin"; wrong34 = 1; wrong_narrow = 0 };
      ]
  in
  Alcotest.(check (list int)) "documented exit-code taxonomy"
    [ 2; 2; 2; 3; 4; 4; 5; 6; 6; 7 ] codes;
  (* every error renders and carries a stable machine label *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "non-empty message" true
        (String.length (Diag.Error.to_string e) > 0);
      Alcotest.(check bool) "kebab label" true
        (String.length (Diag.Error.label e) > 0
        && not (String.contains (Diag.Error.label e) ' ')))
    [
      Diag.Error.Store_io { path = "p"; detail = "d" };
      Diag.Error.Bad_spec { name = "x"; suggestion = Some "exp" };
    ]

(* ---------- typed store I/O error: unwritable store directory ---------- *)

(* Root ignores permission bits, so a chmod-based read-only directory is
   not reliable in CI containers; a path component that is a regular
   file (ENOTDIR) fails for every uid. *)
let test_store_io_error () =
  Test_tmp.with_dir "rlibm-diag-blocker-" @@ fun root ->
  let saved = Cache.dir () in
  let blocker = Filename.concat root "blocker" in
  write_file blocker "not a directory";
  Cache.set_dir (Filename.concat blocker "store");
  Fun.protect
    ~finally:(fun () -> Cache.set_dir saved)
    (fun () ->
      match Cache.store ~kind:"test" ~key:"unwritable" [ 1; 2; 3 ] with
      | Error (Diag.Error.Store_io { path; detail }) ->
          Alcotest.(check bool) "path points into the store" true
            (contains ~sub:blocker path);
          Alcotest.(check bool) "detail non-empty" true (detail <> "")
      | Error e ->
          Alcotest.failf "expected Store_io, got %s" (Diag.Error.to_string e)
      | Ok () -> Alcotest.fail "store into a non-directory succeeded")

(* ---------- typed corrupt-snapshot error from Serve.build ---------- *)

(* Build a snapshot, then flip one payload byte in the stored file so
   the next load hits the store's CRC check. *)
let build_then_corrupt specs =
  (match Serve.build ~strict:true specs with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cold build failed: %s" (Diag.Error.to_string e));
  let path = Cache.path_of_key (Serve.snapshot_key specs) in
  Alcotest.(check bool) "snapshot persisted" true (Sys.file_exists path);
  let b = Bytes.of_string (read_file path) in
  let off = Bytes.length b - 9 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
  write_file path (Bytes.to_string b)

let test_corrupt_snapshot_is_typed () =
  in_fresh_dir (fun d ->
      let specs = [ (Oracle.Exp2, Polyeval.Horner, tiny_cfg) ] in
      build_then_corrupt specs;
      (* strict mode: the store must reject the entry and Serve.build
         must surface that as the typed error — no exception, no silent
         rebuild *)
      (match Serve.build ~strict:true specs with
      | Error (Diag.Error.Corrupt_artifact { kind = "snapshot"; key; _ }) ->
          Alcotest.(check string) "error carries the snapshot key"
            (Serve.snapshot_key specs) key
      | Error e ->
          Alcotest.failf "expected Corrupt_artifact, got %s"
            (Diag.Error.to_string e)
      | Ok _ -> Alcotest.fail "corrupt snapshot served");
      (* the corrupt file was quarantined, so a retry rebuilds cleanly *)
      Alcotest.(check bool) "quarantined" true
        (Sys.readdir d |> Array.to_list
        |> List.exists (contains ~sub:".corrupt-"));
      match Serve.build ~strict:true specs with
      | Ok snap ->
          Alcotest.(check int) "retry rebuilds" 1
            (List.length (Serve.entries snap))
      | Error e ->
          Alcotest.failf "retry failed: %s" (Diag.Error.to_string e))

(* Default mode degrades gracefully: the corrupt snapshot is
   quarantined, a serve.degraded warn is emitted, and the build
   regenerates through the (warm) pipeline instead of failing. *)
let test_corrupt_snapshot_degrades_by_default () =
  in_fresh_dir (fun d ->
      let specs = [ (Oracle.Exp2, Polyeval.Horner, tiny_cfg) ] in
      build_then_corrupt specs;
      let sink, drain = Diag.memory_sink ~min_level:Diag.Warn () in
      (match Diag.with_sinks [ sink ] (fun () -> Serve.build specs) with
      | Ok snap ->
          Alcotest.(check int) "degraded build serves" 1
            (List.length (Serve.entries snap))
      | Error e ->
          Alcotest.failf "default build must degrade, got %s"
            (Diag.Error.to_string e));
      let evs = drain () in
      (match
         List.find_opt (fun ev -> ev.Diag.ev_name = "serve.degraded") evs
       with
      | Some ev ->
          Alcotest.(check bool) "degradation names the snapshot key" true
            (List.assoc_opt "key" ev.Diag.ev_fields
            = Some (Diag.String (Serve.snapshot_key specs)))
      | None -> Alcotest.fail "no serve.degraded warn emitted");
      (* the bad file was still quarantined, and the regenerated
         snapshot was re-persisted for the next load *)
      Alcotest.(check bool) "quarantined" true
        (Sys.readdir d |> Array.to_list
        |> List.exists (contains ~sub:".corrupt-"));
      Alcotest.(check bool) "re-persisted" true
        (Sys.file_exists (Cache.path_of_key (Serve.snapshot_key specs))))

(* ---------- event layer: levels, nesting, zero-cost gating ---------- *)

let test_event_levels_and_gating () =
  let sink, drain = Diag.memory_sink ~min_level:Diag.Info () in
  Diag.with_sinks [ sink ] (fun () ->
      Alcotest.(check bool) "info enabled" true (Diag.enabled Diag.Info);
      Alcotest.(check bool) "debug disabled" false (Diag.enabled Diag.Debug);
      let forced = ref 0 in
      Diag.event "seen" (fun () ->
          incr forced;
          [ ("k", Diag.Int 1) ]);
      Diag.event ~level:Diag.Debug "unseen" (fun () ->
          incr forced;
          []);
      Alcotest.(check int) "suppressed fields never forced" 1 !forced;
      match drain () with
      | [ ev ] ->
          Alcotest.(check string) "name" "seen" ev.Diag.ev_name;
          Alcotest.(check bool) "fields carried" true
            (ev.Diag.ev_fields = [ ("k", Diag.Int 1) ])
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* outside with_sinks the default warn-level stderr sink is back *)
  Alcotest.(check bool) "info disabled after restore" false
    (Diag.enabled Diag.Info)

let test_span_nesting () =
  let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
  Diag.with_sinks [ sink ] (fun () ->
      let v =
        Diag.span "outer"
          (fun () -> [ ("who", Diag.String "outer") ])
          (fun () ->
            Diag.event "inside" (fun () -> []);
            Diag.span "inner"
              (fun () -> [])
              ~result:(fun n -> [ ("n", Diag.Int n) ])
              (fun () -> 41)
            + 1)
      in
      Alcotest.(check int) "span returns the body's value" 42 v;
      match drain () with
      | [ ob; inside; ib; ie; oe ] ->
          Alcotest.(check string) "outer begin" "outer.begin" ob.Diag.ev_name;
          Alcotest.(check string) "inside event" "inside" inside.Diag.ev_name;
          Alcotest.(check string) "inner begin" "inner.begin" ib.Diag.ev_name;
          Alcotest.(check string) "inner end" "inner.end" ie.Diag.ev_name;
          Alcotest.(check string) "outer end" "outer.end" oe.Diag.ev_name;
          let outer_id = ob.Diag.ev_span and inner_id = ib.Diag.ev_span in
          Alcotest.(check bool) "ids assigned" true
            (outer_id <> None && inner_id <> None && outer_id <> inner_id);
          Alcotest.(check bool) "outer is a root span" true
            (ob.Diag.ev_parent = None);
          Alcotest.(check bool) "plain event nests under outer" true
            (inside.Diag.ev_parent = outer_id && inside.Diag.ev_span = None);
          Alcotest.(check bool) "inner nests under outer" true
            (ib.Diag.ev_parent = outer_id);
          Alcotest.(check bool) "end records pair with begins" true
            (ie.Diag.ev_span = inner_id && oe.Diag.ev_span = outer_id);
          let has_field name ev =
            List.mem_assoc name ev.Diag.ev_fields
          in
          Alcotest.(check bool) "end carries timing and status" true
            (has_field "seconds" oe && has_field "ok" oe);
          Alcotest.(check bool) "result fields merged into the end" true
            (List.assoc_opt "n" ie.Diag.ev_fields = Some (Diag.Int 41))
      | evs -> Alcotest.failf "expected 5 events, got %d" (List.length evs))

let test_span_exception () =
  let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
  Diag.with_sinks [ sink ] (fun () ->
      (try
         Diag.span "boom"
           (fun () -> [])
           (fun () -> failwith "kaput")
       with Failure _ -> ());
      match drain () with
      | [ _b; e ] ->
          Alcotest.(check bool) "ok=false on the end record" true
            (List.assoc_opt "ok" e.Diag.ev_fields = Some (Diag.Bool false));
          Alcotest.(check bool) "error field present" true
            (List.mem_assoc "error" e.Diag.ev_fields)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

(* ---------- the acceptance criterion, in-process: a warm pipeline run
   emits stage spans with hit status only ---------- *)

let stage_ends evs =
  List.filter_map
    (fun ev ->
      if ev.Diag.ev_name = "stage.end" then
        Some (List.assoc_opt "status" ev.Diag.ev_fields)
      else None)
    evs

let test_warm_run_emits_only_hits () =
  in_fresh_dir (fun _d ->
      let gen () =
        Rlibm.Constraints.clear_memory_cache ();
        match
          Pipeline.generate ~cfg:tiny_cfg ~scheme:Polyeval.Horner Oracle.Exp2
        with
        | Ok g -> g
        | Error e ->
            Alcotest.failf "generation failed: %s" (Diag.Error.to_string e)
      in
      let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
      let cold_fp, cold_evs =
        Diag.with_sinks [ sink ] (fun () ->
            let g = gen () in
            ( Array.map (fun (p : Polyeval.compiled) -> p.Polyeval.data)
                g.Rlibm.Generate.pieces,
              drain () ))
      in
      Alcotest.(check bool) "cold run rebuilds stages" true
        (List.exists
           (fun st -> st = Some (Diag.String "rebuilt"))
           (stage_ends cold_evs));
      let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
      let warm_fp, warm_evs =
        Diag.with_sinks [ sink ] (fun () ->
            let g = gen () in
            ( Array.map (fun (p : Polyeval.compiled) -> p.Polyeval.data)
                g.Rlibm.Generate.pieces,
              drain () ))
      in
      let warm_ends = stage_ends warm_evs in
      Alcotest.(check bool) "warm run executed stages" true (warm_ends <> []);
      List.iter
        (fun st ->
          Alcotest.(check bool) "warm stage status is hit" true
            (st = Some (Diag.String "hit")))
        warm_ends;
      (* and observing the run did not move the artifacts *)
      Alcotest.(check bool) "observed warm output bit-identical" true
        (cold_fp = warm_fp))

(* ---------- JSONL trace sink ---------- *)

let test_trace_sink () =
  let path = fresh_tmp_name "rlibm-diag-trace" ^ ".jsonl" in
  let sink =
    match Diag.trace_sink ~jobs:3 path with
    | Ok s -> s
    | Error e ->
        Alcotest.failf "trace_sink failed: %s" (Diag.Error.to_string e)
  in
  Diag.with_sinks [ sink ] (fun () ->
      Diag.span "outer"
        (fun () -> [ ("f", Diag.String "exp2") ])
        (fun () ->
          Diag.event ~level:Diag.Debug "tick" (fun () ->
              [
                ("n", Diag.Int 7);
                ("x", Diag.Float 0.5);
                ("ok", Diag.Bool true);
                ("quoted", Diag.String "a\"b\\c\nd");
              ])));
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  (match lines with
  | header :: events ->
      Alcotest.(check bool) "header is the trace envelope" true
        (contains ~sub:"\"kind\":\"rlibm-trace\"" header
        && contains
             ~sub:
               (Printf.sprintf "\"schema_version\":%d"
                  Diag.trace_schema_version)
             header
        && contains ~sub:"\"jobs\":3" header);
      Alcotest.(check int) "begin + event + end" 3 (List.length events);
      List.iter
        (fun l ->
          Alcotest.(check bool) "event lines carry ts/level/ev" true
            (contains ~sub:"\"ts\":" l
            && contains ~sub:"\"level\":" l
            && contains ~sub:"\"ev\":" l))
        events
  | [] -> Alcotest.fail "empty trace file");
  (* the escaped string survived as valid JSON source *)
  Alcotest.(check bool) "string fields escaped" true
    (contains ~sub:{|"quoted":"a\"b\\c\nd"|} (read_file path));
  (* an unopenable path is a typed error, not an exception *)
  match Diag.trace_sink (Filename.concat path "sub.jsonl") with
  | Error (Diag.Error.Store_io _) -> Sys.remove path
  | Error e ->
      Alcotest.failf "expected Store_io, got %s" (Diag.Error.to_string e)
  | Ok _ -> Alcotest.fail "trace into a non-directory succeeded"

let suite =
  [
    ("level round-trip and bad level", `Quick, test_levels);
    ("exit-code taxonomy", `Quick, test_exit_codes);
    ("unwritable store is a typed Store_io", `Quick, test_store_io_error);
    ("event levels and zero-cost gating", `Quick, test_event_levels_and_gating);
    ("span nesting and ids", `Quick, test_span_nesting);
    ("span failure is recorded and re-raised", `Quick, test_span_exception);
    ("JSONL trace sink", `Quick, test_trace_sink);
    ("corrupt snapshot surfaces typed from strict Serve.build", `Slow,
     test_corrupt_snapshot_is_typed);
    ("corrupt snapshot degrades gracefully by default", `Slow,
     test_corrupt_snapshot_degrades_by_default);
    ("warm pipeline run emits only hit spans", `Slow,
     test_warm_run_emits_only_hits);
  ]
