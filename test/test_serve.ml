(* The servable snapshot layer: build / persist / load round-trips, the
   warm-load store footprint (exactly one snapshot entry, no oracle or
   polynomial stage activity), and the batched evaluator's determinism
   contract (bit-identical to scalar eval_bits at every job count and
   batch size, with small requests served on the calling domain). *)

let tiny_cfg = Test_tmp.tiny_cfg

let tiny = tiny_cfg.Rlibm.Config.tin

let specs =
  [
    (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
    (Oracle.Log2, Polyeval.Horner, tiny_cfg);
  ]

(* Point the store at a fresh directory for the scope of [f], removed
   afterwards. *)
let with_cache_dir f = Test_tmp.with_store "rlibm-serve-test-" f

let with_jobs j f =
  let prev = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let build_ok specs =
  match Serve.build specs with
  | Ok t -> t
  | Error err ->
      Alcotest.failf "snapshot build failed: %s" (Diag.Error.to_string err)

let bits_of = Array.map Int64.bits_of_float

(* Array in, array out through the serving entry point. *)
let serve_batch snap func inputs =
  let n = Array.length inputs in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
  Serve.eval_batch_into snap func ~src ~dst;
  Array.init n (fun i -> Bigarray.Array1.get dst i)

let test_cold_warm_roundtrip () =
  with_cache_dir (fun _dir ->
      let cold = build_ok specs in
      Alcotest.(check int) "entries" 2 (List.length (Serve.entries cold));
      let inputs = Genlibm.inputs_exhaustive tiny in
      let out_cold = serve_batch cold Oracle.Exp2 inputs in
      (* Second build: must load from the store, touching exactly one
         entry of exactly one kind — no oracle, interval, constraint or
         polynomial stage activity of any sort. *)
      Cache.reset_stats ();
      let warm = build_ok specs in
      (match Cache.stats_by_kind () with
      | [ ("snapshot", s) ] ->
          Alcotest.(check int) "snapshot hits" 1 s.Cache.hits;
          Alcotest.(check int) "snapshot misses" 0 s.Cache.misses
      | kinds ->
          Alcotest.failf "warm load touched kinds [%s]"
            (String.concat "; " (List.map fst kinds)));
      let out_warm = serve_batch warm Oracle.Exp2 inputs in
      Alcotest.(check bool) "warm results bit-identical" true
        (bits_of out_cold = bits_of out_warm);
      let out_log = serve_batch warm Oracle.Log2 inputs in
      Alcotest.(check int) "log batch length" (Array.length inputs)
        (Array.length out_log))

(* Batches straddling the serving grain (Genlibm.kernel_grain, 3072):
   inline below 6144 elements, two chunks at 6144, the full grid at
   2^16; the sizes around 1024 and 2048 straddled earlier grains.
   Inputs are seeded draws over every pattern of the format, so each
   size mixes NaN/Inf, zeros, shortcut and polynomial rows. *)
let batch_sizes =
  [ 1; 63; 64; 511; 1023; 1024; 1025; 2047; 2048; 2049; 6143; 6144; 6145; 1 lsl 16 ]

let seeded_inputs n =
  let st = Random.State.make [| 1414; n |] in
  Array.init n (fun _ -> Int64.of_int (Random.State.int st (1 lsl Softfp.width tiny)))

let test_batch_matches_scalar_at_any_j () =
  with_cache_dir (fun _dir ->
      let snap = build_ok specs in
      List.iter
        (fun func ->
          let impl = (Option.get (Serve.find snap func)).Serve.e_impl in
          List.iter
            (fun inputs ->
              let n = Array.length inputs in
              let scalar = bits_of (Array.map (Genlibm.eval_bits impl) inputs) in
              List.iter
                (fun j ->
                  let got = bits_of (with_jobs j (fun () -> serve_batch snap func inputs)) in
                  Array.iteri
                    (fun i s ->
                      if not (Int64.equal s got.(i)) then
                        Alcotest.failf "%s n=%d -j %d: input %Lx: scalar %Lx, served %Lx"
                          (Oracle.name func) n j inputs.(i) s got.(i))
                    scalar)
                [ 1; 4 ])
            (Genlibm.inputs_exhaustive tiny :: List.map seeded_inputs batch_sizes))
        [ Oracle.Exp2; Oracle.Log2 ])

(* The serving path allocates per chunk, never per element: at -j 1,
   after a warm-up call, a 2^10-element request (one kernel call) stays
   within 0.03 minor words per element (about 0.016 today).  A table
   built per call or a float boxed per element breaks this bound. *)
let test_batch_minor_words () =
  with_cache_dir (fun _dir ->
      let snap = build_ok specs in
      let n = 1 lsl 10 in
      let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
      Array.iteri (fun i x -> Bigarray.Array1.set src i x) (seeded_inputs n);
      with_jobs 1 (fun () ->
          List.iter
            (fun (func, _, _) ->
              Serve.eval_batch_into snap func ~src ~dst;
              let w0 = Gc.minor_words () in
              Serve.eval_batch_into snap func ~src ~dst;
              let per_elt = (Gc.minor_words () -. w0) /. float_of_int n in
              if per_elt > 0.03 then
                Alcotest.failf "%s: %.4f minor words per element (bound 0.03)"
                  (Oracle.name func) per_elt)
            specs))

(* A small request never touches the domain pool; a bulk one fans out
   exactly once. *)
let test_small_requests_stay_inline () =
  with_cache_dir (fun _dir ->
      let snap = build_ok specs in
      let fan_outs n =
        let inputs = seeded_inputs n in
        let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
        Diag.with_sinks [ sink ] (fun () ->
            with_jobs 4 (fun () ->
                ignore (serve_batch snap Oracle.Exp2 inputs : float array));
            List.length
              (List.filter
                 (fun ev -> ev.Diag.ev_name = "parallel.fan-out")
                 (drain ())))
      in
      Alcotest.(check int) "64 elements: no fan-out" 0 (fan_outs 64);
      Alcotest.(check int) "2^16 elements: one fan-out" 1 (fan_outs (1 lsl 16)))

let test_unknown_func_rejected () =
  with_cache_dir (fun _dir ->
      let snap = build_ok [ (Oracle.Exp2, Polyeval.Horner, tiny_cfg) ] in
      Alcotest.check_raises "not in snapshot"
        (Invalid_argument "Serve.eval_batch_into: log10 is not in this snapshot")
        (fun () -> ignore (serve_batch snap Oracle.Log10 [| 0L |] : float array)))

(* Lookups are per-function, so a spec list naming one function twice
   must be rejected up front — before the fix the second entry was
   silently shadowed by the first and a caller asking for (exp2, horner)
   could be served (exp2, estrin-fma). *)
let test_duplicate_func_rejected () =
  with_cache_dir (fun _dir ->
      let dup =
        [
          (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
          (Oracle.Log2, Polyeval.Horner, tiny_cfg);
          (Oracle.Exp2, Polyeval.Horner, tiny_cfg);
        ]
      in
      Cache.reset_stats ();
      (match Serve.build dup with
      | Ok _ -> Alcotest.fail "duplicate spec accepted"
      | Error (Diag.Error.Bad_config { what } as err) ->
          let msg = Diag.Error.to_string err in
          let contains needle hay =
            let nl = String.length needle and hl = String.length hay in
            let rec at i =
              i + nl <= hl && (String.sub hay i nl = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error names the function (%s)" msg)
            true
            (contains "exp2" what && contains "duplicate" what
            && contains "exp2" msg && contains "duplicate" msg)
      | Error err ->
          Alcotest.failf "expected Bad_config, got %s"
            (Diag.Error.to_string err));
      (* The rejection must happen before any resolution: no stage ran,
         nothing was persisted. *)
      Alcotest.(check (list string)) "no store traffic" []
        (List.map fst (Cache.stats_by_kind ())))

let test_key_pins_knobs () =
  let k = Serve.snapshot_key specs in
  Alcotest.(check string) "key is deterministic" k (Serve.snapshot_key specs);
  let other_scheme =
    [
      (Oracle.Exp2, Polyeval.Horner, tiny_cfg);
      (Oracle.Log2, Polyeval.Horner, tiny_cfg);
    ]
  in
  Alcotest.(check bool) "scheme changes key" true
    (k <> Serve.snapshot_key other_scheme);
  let other_cfg =
    [
      (Oracle.Exp2, Polyeval.EstrinFma, { tiny_cfg with Rlibm.Config.pieces = 3 });
      (Oracle.Log2, Polyeval.Horner, tiny_cfg);
    ]
  in
  Alcotest.(check bool) "config changes key" true
    (k <> Serve.snapshot_key other_cfg);
  Alcotest.(check bool) "order changes key" true
    (k <> Serve.snapshot_key (List.rev specs))

let suite =
  [
    ("snapshot key pins every knob", `Quick, test_key_pins_knobs);
    ("duplicate function rejected", `Quick, test_duplicate_func_rejected);
    ("cold build / warm load round-trip", `Slow, test_cold_warm_roundtrip);
    ("batch = scalar at -j 1 and -j 4", `Slow, test_batch_matches_scalar_at_any_j);
    ("unknown function rejected", `Slow, test_unknown_func_rejected);
    ("small requests stay on the caller", `Slow, test_small_requests_stay_inline);
    ("batch allocates per chunk, not per element", `Slow, test_batch_minor_words);
  ]
