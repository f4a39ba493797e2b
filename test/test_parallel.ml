(* Tests for the deterministic domain-pool fan-out, and the end-to-end
   determinism contract of the parallel pipeline: everything the
   generator produces must be bit-identical at -j 1 and -j 4. *)

let with_jobs j f =
  let saved = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

(* ---------- combinator unit tests ---------- *)

let test_map_empty_and_tiny () =
  with_jobs 4 (fun () ->
      Alcotest.(check (array int)) "empty" [||] (Parallel.map_array succ [||]);
      Alcotest.(check (array int)) "singleton" [| 1 |] (Parallel.map_array succ [| 0 |]);
      (* fewer items than jobs * chunk factor *)
      Alcotest.(check (array int)) "n < chunks" [| 1; 2; 3 |]
        (Parallel.map_array succ [| 0; 1; 2 |]))

(* Every grain gives the sequential result, at every job count: the
   grains straddle the inline cutoff (n < 2 * grain) and the chunk cap. *)
let grains = [ 1; 7; 300; 2499; 2500; 4096 ]

let test_map_matches_sequential () =
  let a = Array.init 10_000 (fun i -> i) in
  let expect = Array.map (fun x -> (x * x) + 1) a in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          List.iter
            (fun grain ->
              Alcotest.(check (array int))
                (Printf.sprintf "squares at -j %d, grain %d" j grain)
                expect
                (Parallel.map_array ~grain (fun x -> (x * x) + 1) a))
            grains))
    [ 1; 2; 4; 7 ]

let test_init_matches_sequential () =
  let expect = Array.init 4999 (fun i -> 3 * i) in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          List.iter
            (fun grain ->
              Alcotest.(check (array int))
                (Printf.sprintf "init at -j %d, grain %d" j grain)
                expect
                (Parallel.init ~grain 4999 (fun i -> 3 * i)))
            grains))
    [ 1; 2; 4; 7 ]

let test_iter_chunks_covers () =
  with_jobs 4 (fun () ->
      List.iter
        (fun grain ->
          List.iter
            (fun n ->
              let seen = Array.make n 0 in
              Parallel.iter_chunks ~grain n (fun lo hi ->
                  for i = lo to hi - 1 do
                    seen.(i) <- seen.(i) + 1
                  done);
              Alcotest.(check bool)
                (Printf.sprintf "grain %d, n %d: each index exactly once" grain n)
                true
                (Array.for_all (( = ) 1) seen))
            [ 0; 1; (2 * grain) - 1; 2 * grain; (2 * grain) + 1; 7777 ])
        [ 1; 100 ];
      Parallel.iter_chunks 0 (fun _ _ -> Alcotest.fail "chunk on empty range"))

exception Boom of int

let test_exception_propagation () =
  with_jobs 4 (fun () ->
      let a = Array.init 10_000 (fun i -> i) in
      (* Both ends fail; the lowest-numbered chunk's exception must win,
         deterministically, after the whole batch has drained. *)
      (match
         Parallel.map_array
           (fun x -> if x = 3 || x = 9_999 then raise (Boom x) else x)
           a
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) "lowest chunk wins" 3 x);
      (* The pool must survive a failed batch. *)
      Alcotest.(check (array int)) "pool alive after exception"
        (Array.map succ a)
        (Parallel.map_array succ a))

let test_pool_reuse () =
  with_jobs 4 (fun () ->
      let a = Array.init 2000 (fun i -> i) in
      for round = 1 to 25 do
        let got = Parallel.map_array (fun x -> x + round) a in
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (1999 + round)
          got.(1999)
      done);
  (* Resizing tears the pool down and rebuilds it lazily. *)
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          Alcotest.(check (array int))
            (Printf.sprintf "resize to %d" j)
            [| 0; 2; 4 |]
            (Parallel.map_array (fun x -> 2 * x) [| 0; 1; 2 |])))
    [ 2; 4; 2 ]

let test_sequential_path () =
  (* -j 1 must run everything on the calling domain: no worker is
     spawned, f observes the driver's domain id. *)
  with_jobs 1 (fun () ->
      let self = (Domain.self () :> int) in
      let a = Array.init 5000 (fun i -> i) in
      let domains =
        Parallel.map_array (fun _ -> (Domain.self () :> int)) a
      in
      Alcotest.(check bool) "driver domain only" true
        (Array.for_all (( = ) self) domains);
      Parallel.iter_chunks 100 (fun lo hi ->
          Alcotest.(check (pair int int)) "single chunk" (0, 100) (lo, hi)))

(* ---------- grain ---------- *)

(* The chunks [iter_chunks ~grain n] hands out, in ascending order, with
   the domain that ran each one. *)
let chunks_of ~grain n =
  let m = Mutex.create () and seen = ref [] in
  Parallel.iter_chunks ~grain n (fun lo hi ->
      let d = (Domain.self () :> int) in
      Mutex.protect m (fun () -> seen := (lo, hi, d) :: !seen));
  List.sort compare !seen

let test_grain_small_inline () =
  with_jobs 4 (fun () ->
      let self = (Domain.self () :> int) in
      List.iter
        (fun (grain, n) ->
          match chunks_of ~grain n with
          | [ (0, hi, d) ] when hi = n ->
              Alcotest.(check int)
                (Printf.sprintf "grain %d, n %d on the caller" grain n)
                self d
          | cs ->
              Alcotest.failf "grain %d, n %d: %d chunks, expected f 0 n once"
                grain n (List.length cs))
        [ (1, 1); (64, 1); (64, 127); (512, 64); (512, 1023) ])

let test_grain_chunk_sizes () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          List.iter
            (fun (grain, n) ->
              let cs = chunks_of ~grain n in
              Alcotest.(check bool)
                (Printf.sprintf "-j %d grain %d n %d: >= 2 chunks" j grain n)
                true
                (List.length cs >= 2 && List.length cs <= j * 8);
              List.iter
                (fun (lo, hi, _) ->
                  if hi - lo < grain then
                    Alcotest.failf "-j %d grain %d n %d: chunk [%d, %d) too small"
                      j grain n lo hi)
                cs)
            [ (1, 2); (64, 128); (64, 129); (100, 7777); (512, 1024); (512, 1 lsl 16) ]))
    [ 2; 4; 7 ]

(* ---------- RLIBM_JOBS parsing ---------- *)

let test_jobs_env_fallback () =
  let saved = Sys.getenv_opt "RLIBM_JOBS" in
  let restore () =
    (* putenv cannot unset; "" is documented as equivalent to unset. *)
    Unix.putenv "RLIBM_JOBS" (Option.value saved ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      let cores = Domain.recommended_domain_count () in
      Unix.putenv "RLIBM_JOBS" "3";
      Alcotest.(check int) "valid value wins" 3 (Parallel.default_jobs ());
      Unix.putenv "RLIBM_JOBS" " 2 ";
      Alcotest.(check int) "whitespace trimmed" 2 (Parallel.default_jobs ());
      Unix.putenv "RLIBM_JOBS" "";
      Alcotest.(check int) "empty = unset" cores (Parallel.default_jobs ());
      (* Malformed values must fall back to the core count (with a
         warning on stderr), never crash and never yield 0 jobs. *)
      List.iter
        (fun bad ->
          Unix.putenv "RLIBM_JOBS" bad;
          Alcotest.(check int)
            (Printf.sprintf "%S falls back" bad)
            cores (Parallel.default_jobs ()))
        [ "banana"; "0"; "-4"; "3.5"; "  " ])

(* ---------- end-to-end determinism: -j 1 vs -j 4 ---------- *)

let tiny_cfg = Test_tmp.tiny_cfg

(* Everything observable about a generated function and the oracle table
   it was generated from, in canonical order and exact bit patterns. *)
let fingerprint (g : Rlibm.Generate.generated) oracle =
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
  let oracle =
    Hashtbl.fold (fun x y acc -> (x, y) :: acc) oracle [] |> List.sort compare
  in
  ( coeffs,
    Array.to_list g.Rlibm.Generate.degrees,
    specials,
    oracle )

let generate_at ~jobs func scheme =
  with_jobs jobs (fun () ->
      (* Re-pay the oracle construction so the fan-out actually runs. *)
      Rlibm.Constraints.clear_memory_cache ();
      let oracle = Result.get_ok (Pipeline.oracle_stage ~cfg:tiny_cfg func) in
      match Pipeline.verified ~cfg:tiny_cfg ~scheme func with
      | Error msg -> Alcotest.failf "generation failed: %s" (Diag.Error.to_string msg)
      | Ok (g, rep) -> (fingerprint g oracle, rep))

let check_determinism func scheme () =
  (* Keep the disk cache out of the picture: a warm file would let the
     second run skip the parallel oracle computation entirely.  The
     scoped override (not [Unix.putenv]) keeps the disabling local to
     this test and safe under concurrent domains. *)
  let (coeffs1, degrees1, specials1, oracle1), rep1 =
    Cache.with_persistence false (fun () -> generate_at ~jobs:1 func scheme)
  in
  let (coeffs4, degrees4, specials4, oracle4), rep4 =
    Cache.with_persistence false (fun () -> generate_at ~jobs:4 func scheme)
  in
  Alcotest.(check (list int64)) "coefficient bits" coeffs1 coeffs4;
  Alcotest.(check (list int)) "degrees" degrees1 degrees4;
  Alcotest.(check (list (pair int64 int64))) "special inputs" specials1 specials4;
  Alcotest.(check (list (pair int64 int64))) "oracle table" oracle1 oracle4;
  Alcotest.(check int) "verify checked" rep1.Genlibm.checked rep4.Genlibm.checked;
  Alcotest.(check int) "verify wrong34" rep1.Genlibm.wrong34 rep4.Genlibm.wrong34;
  Alcotest.(check int) "verify narrow checks" rep1.Genlibm.narrow_checks
    rep4.Genlibm.narrow_checks;
  Alcotest.(check int) "verify wrong narrow" rep1.Genlibm.wrong_narrow
    rep4.Genlibm.wrong_narrow

let suite =
  [
    ("map: empty / tiny", `Quick, test_map_empty_and_tiny);
    ("map matches sequential", `Quick, test_map_matches_sequential);
    ("init matches sequential", `Quick, test_init_matches_sequential);
    ("iter_chunks covers once", `Quick, test_iter_chunks_covers);
    ("exception propagation", `Quick, test_exception_propagation);
    ("pool reuse and resize", `Quick, test_pool_reuse);
    ("-j 1 sequential path", `Quick, test_sequential_path);
    ("RLIBM_JOBS parsing and fallback", `Quick, test_jobs_env_fallback);
    ("grain: small n runs f 0 n on the caller", `Quick, test_grain_small_inline);
    ("grain: every chunk holds >= grain items", `Quick, test_grain_chunk_sizes);
    ("determinism log2/estrin -j1 vs -j4", `Slow, check_determinism Oracle.Log2 Polyeval.Estrin);
    ("determinism exp2/estrin-fma -j1 vs -j4", `Slow, check_determinism Oracle.Exp2 Polyeval.EstrinFma);
  ]
