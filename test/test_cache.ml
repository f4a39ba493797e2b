(* Tests for the hardened persistent artifact store: header/checksum
   validation, quarantine-and-regenerate on every corruption mode,
   atomic concurrent publishes, and the acceptance criterion that a
   poisoned oracle cache can never change generated output. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let dir_entries_with ~sub d =
  Sys.readdir d |> Array.to_list |> List.filter (has_substring ~sub)

(* Run [f] against a fresh store directory with zeroed counters, removed
   afterwards (other suites share the process). *)
let in_fresh_dir f =
  Test_tmp.with_store "rlibm-cache-test-" (fun d ->
      Cache.reset_stats ();
      f d)

let check_counts ~hits ~misses ~corrupt () =
  let s = Cache.stats () in
  Alcotest.(check int) "hits" hits s.Cache.hits;
  Alcotest.(check int) "misses" misses s.Cache.misses;
  Alcotest.(check int) "corrupt-rejected" corrupt s.Cache.corrupt_rejected

(* Expect a load to reject: a typed corrupt/key-mismatch error, one
   corrupt-rejected count, the entry quarantined aside (so the next load
   is a clean miss). *)
let check_rejected ~key d =
  let corrupt_before = (Cache.stats ()).Cache.corrupt_rejected in
  (match (Cache.load ~kind:"test" ~key : (int list option, Diag.Error.t) result) with
  | Error (Diag.Error.Corrupt_artifact { kind; key = k; _ })
  | Error (Diag.Error.Key_mismatch { kind; key = k }) ->
      Alcotest.(check string) "error carries the kind" "test" kind;
      Alcotest.(check string) "error carries the key" key k
  | Ok _ -> Alcotest.fail "corrupt entry was not rejected"
  | Error e -> Alcotest.failf "unexpected error %s" (Diag.Error.to_string e));
  Alcotest.(check int) "one more corrupt-rejected" (corrupt_before + 1)
    (Cache.stats ()).Cache.corrupt_rejected;
  Alcotest.(check bool) "quarantined aside" true
    (dir_entries_with ~sub:".corrupt-" d <> []);
  Alcotest.(check bool) "original gone" false
    (Sys.file_exists (Cache.path_of_key key));
  Alcotest.(check bool) "subsequent load is a miss" true
    (Cache.load ~kind:"test" ~key = (Ok None : (int list option, Diag.Error.t) result))

let value : int list = List.init 257 (fun i -> (i * i) - 7)

let test_roundtrip () =
  in_fresh_dir (fun _d ->
      Alcotest.(check bool) "store succeeds" true
        (Cache.store ~kind:"test" ~key:"roundtrip" value = Ok ());
      Alcotest.(check bool) "loads back" true
        (Cache.load ~kind:"test" ~key:"roundtrip" = Ok (Some value));
      check_counts ~hits:1 ~misses:0 ~corrupt:0 ();
      let s = Cache.stats () in
      Alcotest.(check bool) "bytes written" true (s.Cache.bytes_written > 0);
      Alcotest.(check bool) "bytes read" true
        (s.Cache.bytes_read = s.Cache.bytes_written))

let test_miss () =
  in_fresh_dir (fun _d ->
      Alcotest.(check bool) "absent" true
        (Cache.load ~kind:"test" ~key:"never-stored"
        = (Ok None : (int list option, Diag.Error.t) result));
      check_counts ~hits:0 ~misses:1 ~corrupt:0 ())

let test_per_kind_stats () =
  in_fresh_dir (fun _d ->
      ignore (Cache.store ~kind:"oracle" ~key:"k1" value : (unit, Diag.Error.t) result);
      ignore (Cache.store ~kind:"poly" ~key:"k2" value : (unit, Diag.Error.t) result);
      ignore (Cache.load ~kind:"oracle" ~key:"k1" : (int list option, Diag.Error.t) result);
      ignore (Cache.load ~kind:"oracle" ~key:"k1" : (int list option, Diag.Error.t) result);
      ignore (Cache.load ~kind:"poly" ~key:"absent" : (int list option, Diag.Error.t) result);
      let kinds = Cache.stats_by_kind () in
      let find k = List.assoc k kinds in
      let o = find "oracle" and p = find "poly" in
      Alcotest.(check int) "oracle hits" 2 o.Cache.hits;
      Alcotest.(check int) "oracle misses" 0 o.Cache.misses;
      Alcotest.(check bool) "oracle bytes written" true
        (o.Cache.bytes_written > 0);
      Alcotest.(check int) "poly hits" 0 p.Cache.hits;
      Alcotest.(check int) "poly misses" 1 p.Cache.misses;
      (* global counters are the sum over kinds *)
      let s = Cache.stats () in
      Alcotest.(check int) "global hits" (o.Cache.hits + p.Cache.hits)
        s.Cache.hits;
      Alcotest.(check int) "global misses" (o.Cache.misses + p.Cache.misses)
        s.Cache.misses;
      (* the per-kind report renders one line per kind *)
      let rendered =
        Format.asprintf "%a" Cache.pp_stats_by_kind (Cache.stats_by_kind ())
      in
      Alcotest.(check bool) "report names both kinds" true
        (has_substring ~sub:"oracle" rendered
        && has_substring ~sub:"poly" rendered))

let test_truncated () =
  in_fresh_dir (fun d ->
      let key = "truncated" in
      ignore (Cache.store ~kind:"test" ~key value : (unit, Diag.Error.t) result);
      let path = Cache.path_of_key key in
      let data = read_file path in
      write_file path (String.sub data 0 (String.length data - 5));
      check_rejected ~key d)

let test_bitflip_payload () =
  in_fresh_dir (fun d ->
      let key = "bitflip" in
      ignore (Cache.store ~kind:"test" ~key value : (unit, Diag.Error.t) result);
      let path = Cache.path_of_key key in
      let b = Bytes.of_string (read_file path) in
      let off = Bytes.length b - 3 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
      write_file path (Bytes.to_string b);
      check_rejected ~key d)

let test_wrong_version () =
  in_fresh_dir (fun d ->
      let key = "wrong-version" in
      ignore (Cache.store ~kind:"test" ~key value : (unit, Diag.Error.t) result);
      let path = Cache.path_of_key key in
      let b = Bytes.of_string (read_file path) in
      (* the u32 at offset 8 is the container format version *)
      Bytes.set_int32_be b 8 (Int32.of_int (Cache.format_version + 13));
      write_file path (Bytes.to_string b);
      check_rejected ~key d)

let test_wrong_key () =
  in_fresh_dir (fun d ->
      (* A file renamed (or hash-collided) onto another key's path still
         carries the full key in its header and must be rejected. *)
      ignore (Cache.store ~kind:"test" ~key:"key-a" value
        : (unit, Diag.Error.t) result);
      write_file (Cache.path_of_key "key-b")
        (read_file (Cache.path_of_key "key-a"));
      check_rejected ~key:"key-b" d;
      (* the genuine entry is untouched *)
      Alcotest.(check bool) "key-a still loads" true
        (Cache.load ~kind:"test" ~key:"key-a" = Ok (Some value)))

let test_legacy_unversioned_blob () =
  in_fresh_dir (fun d ->
      (* The pre-hardening cache wrote raw Marshal blobs.  One planted at
         the new path must be rejected on the magic check — stale entries
         are regenerated, never trusted (and never deserialized). *)
      let key = "legacy" in
      write_file (Cache.path_of_key key) (Marshal.to_string value []);
      check_rejected ~key d)

let test_concurrent_writers () =
  in_fresh_dir (fun d ->
      let key = "concurrent" in
      let rounds = 50 in
      let writer tag =
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              ignore (Cache.store ~kind:"test" ~key (tag, i)
                : (unit, Diag.Error.t) result)
            done)
      in
      let d1 = writer "a" and d2 = writer "b" in
      Domain.join d1;
      Domain.join d2;
      (* Whatever interleaving happened, the published file is one
         writer's complete, validating record — never a torn mix. *)
      (match
         (Cache.load ~kind:"test" ~key
           : ((string * int) option, Diag.Error.t) result)
       with
      | Ok (Some (tag, i)) ->
          Alcotest.(check bool) "a complete record" true
            ((tag = "a" || tag = "b") && i = rounds)
      | Ok None | Error _ -> Alcotest.fail "published entry must validate");
      check_counts ~hits:1 ~misses:0 ~corrupt:0 ();
      Alcotest.(check (list string)) "no temp litter" []
        (dir_entries_with ~sub:".tmp-" d))

(* ---------- acceptance: poisoning never changes generated output ---------- *)

let tiny_cfg = Test_tmp.tiny_cfg

(* Everything observable about a generated function and the oracle table
   it was generated from, as exact bits (same shape as the determinism
   fingerprint in test_parallel.ml). *)
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
  (coeffs, Array.to_list g.Rlibm.Generate.degrees, specials, oracle)

(* A pipeline pass from a cold in-process state: the oracle stage (which
   loads the stored table when there is one), then the verified
   function. *)
let generate_and_verify () =
  Rlibm.Constraints.clear_memory_cache ();
  let oracle =
    Result.get_ok (Pipeline.oracle_stage ~cfg:tiny_cfg Oracle.Exp2)
  in
  match Pipeline.verified ~cfg:tiny_cfg ~scheme:Polyeval.Estrin Oracle.Exp2 with
  | Error err -> Alcotest.failf "generation failed: %s" (Diag.Error.to_string err)
  | Ok (g, rep) -> (fingerprint g oracle, rep)

let test_poisoned_cache_bit_identity () =
  in_fresh_dir (fun d ->
      let cold, cold_rep = generate_and_verify () in
      let key =
        Rlibm.Constraints.oracle_cache_key ~func:Oracle.Exp2
          ~tin:tiny_cfg.Rlibm.Config.tin
          ~tout:(Rlibm.Config.tout tiny_cfg)
      in
      let path = Cache.path_of_key key in
      Alcotest.(check bool) "oracle table persisted" true
        (Sys.file_exists path);
      (* warm run: disk hit, still bit-identical *)
      let warm, warm_rep = generate_and_verify () in
      Alcotest.(check bool) "warm = cold" true (warm = cold && warm_rep = cold_rep);
      (* poison the payload and regenerate: the store must reject,
         quarantine, recompute — and the output must not move a bit.
         Every other artifact goes, so the constraints, the polynomial
         and the verdict are rebuilt from the table the oracle stage
         ends up with. *)
      let b = Bytes.of_string (read_file path) in
      let off = Bytes.length b - 11 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x55));
      write_file path (Bytes.to_string b);
      Array.iter
        (fun f ->
          if f <> Filename.basename path then Sys.remove (Filename.concat d f))
        (Sys.readdir d);
      Cache.reset_stats ();
      let poisoned, poisoned_rep = generate_and_verify () in
      Alcotest.(check bool) "coefficients/specials/oracle bit-identical" true
        (poisoned = cold);
      Alcotest.(check bool) "verification verdicts identical" true
        (poisoned_rep = cold_rep);
      Alcotest.(check bool) "rejection counted" true
        ((Cache.stats ()).Cache.corrupt_rejected >= 1);
      Alcotest.(check bool) "poisoned file quarantined" true
        (dir_entries_with ~sub:".corrupt-" d <> []);
      (* the regeneration republished a valid entry *)
      Alcotest.(check bool) "entry republished" true (Sys.file_exists path);
      let republished, republished_rep = generate_and_verify () in
      Alcotest.(check bool) "republished entry validates and matches" true
        (republished = cold && republished_rep = cold_rep))

(* Sampled generation owns its (partial) oracle table: a binary32 exp2
   generation into a fresh, enabled store publishes nothing, so no
   partial table can sit under the whole-format oracle key. *)
let test_sampled_leaves_store_alone () =
  in_fresh_dir (fun d ->
      Cache.with_persistence true (fun () ->
          let cfg = Rlibm.Config.float32_for Oracle.Exp2 in
          match
            Genlibm.generate_sampled ~cfg ~scheme:Polyeval.EstrinFma ~count:250
              ~seed:11 Oracle.Exp2
          with
          | Error err, _, _ ->
              Alcotest.failf "sampled generation failed: %s"
                (Diag.Error.to_string err)
          | Ok _, _, oracle ->
              Alcotest.(check bool) "its own table is filled" true
                (Hashtbl.length oracle > 0);
              Alcotest.(check bool) "no oracle-kind traffic" true
                (List.assoc_opt "oracle" (Cache.stats_by_kind ()) = None);
              Alcotest.(check (list string)) "store stays empty" []
                (Array.to_list (Sys.readdir d))))

let suite =
  [
    ("store/load roundtrip", `Quick, test_roundtrip);
    ("absent entry is a miss", `Quick, test_miss);
    ("per-kind counters", `Quick, test_per_kind_stats);
    ("truncated file rejected", `Quick, test_truncated);
    ("bit-flipped payload rejected", `Quick, test_bitflip_payload);
    ("wrong format version rejected", `Quick, test_wrong_version);
    ("wrong key header rejected", `Quick, test_wrong_key);
    ("legacy unversioned blob rejected", `Quick, test_legacy_unversioned_blob);
    ("concurrent writers never tear", `Quick, test_concurrent_writers);
    ( "poisoned cache: output bit-identical to cold run",
      `Slow,
      test_poisoned_cache_bit_identity );
    ("sampled generation leaves the store alone", `Slow,
     test_sampled_leaves_store_alone);
  ]
