(* Bit-identity of the zero-allocation batch layer against the scalar
   reference path (the DAG): Genlibm.eval_bits_into vs eval_bits over
   every bit pattern of a mini format (NaN, infinities, zeros,
   subnormals, specials and shortcut inputs included) for every scheme
   on both families, Serve.eval_batch_into at -j 1 and -j 4, the
   kernel's table compensation against Reduction.compensate, seeded sampled
   binary32 batches (the 16-piece path), the edges of the vector loops
   and the kernel's blocks (every window alignment and remainder), the
   truncation floor at t = -0.0, the table decode against
   Softfp.to_float, batch shapes of the branch-free classification,
   and zero minor-heap allocation per call. *)

let tiny_cfg = Test_tmp.tiny_cfg

let tiny = tiny_cfg.Rlibm.Config.tin

(* Generation is expensive and several tests share a function; they
   read the test run's memo. *)
let generate_ok func scheme =
  match Test_tmp.generate ~cfg:tiny_cfg ~scheme func with
  | Ok g -> g
  | Error msg ->
      Alcotest.failf "%s/%s generation failed: %s" (Oracle.name func)
        (Polyeval.scheme_name scheme)
        (Diag.Error.to_string msg)

(* Every bit pattern of the format — the kernel must agree on the
   non-finite and special rows too, not just the polynomial path. *)
let all_patterns fmt =
  Array.init (1 lsl Softfp.width fmt) Int64.of_int

let kernel_bits g patterns =
  let n = Array.length patterns in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
  Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n;
  Array.init n (fun i -> Int64.bits_of_float (Bigarray.Array1.get dst i))

let check_bit_identity name g patterns =
  let kb = kernel_bits g patterns in
  Array.iteri
    (fun i x ->
      let s = Int64.bits_of_float (Genlibm.eval_bits g x) in
      if not (Int64.equal s kb.(i)) then
        Alcotest.failf "%s: input %Lx: scalar %Lx, kernel %Lx" name x s kb.(i))
    patterns

(* ---------- exhaustive kernel = scalar, per (func, scheme) ---------- *)

(* exp2/log2 cover every scheme; the remaining four functions ride on
   one scheme each (the full grid at this format is generation-bound,
   and the kernel branches under test depend on family + scheme, both
   of which this set covers completely). *)
let combos =
  List.map (fun s -> (Oracle.Exp2, s)) Polyeval.all_schemes
  @ List.map (fun s -> (Oracle.Log2, s)) Polyeval.all_schemes
  @ [
      (Oracle.Exp, Polyeval.EstrinFma);
      (Oracle.Exp10, Polyeval.EstrinFma);
      (Oracle.Log, Polyeval.EstrinFma);
      (Oracle.Log10, Polyeval.EstrinFma);
    ]

let test_exhaustive func scheme () =
  let g = generate_ok func scheme in
  let name =
    Printf.sprintf "%s/%s" (Oracle.name func) (Polyeval.scheme_name scheme)
  in
  check_bit_identity name g (all_patterns tiny)

(* ---------- chunk windows ---------- *)

let test_window_untouched () =
  let g = generate_ok Oracle.Log2 Polyeval.EstrinFma in
  let patterns = all_patterns tiny in
  let n = Array.length patterns in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
  Bigarray.Array1.fill dst 42.0;
  let lo = n / 3 and hi = 2 * n / 3 in
  Genlibm.eval_bits_into g ~src ~dst ~lo ~hi;
  for i = 0 to n - 1 do
    if i < lo || i >= hi then begin
      if Bigarray.Array1.get dst i <> 42.0 then
        Alcotest.failf "slot %d outside [%d, %d) was clobbered" i lo hi
    end
    else begin
      let s = Int64.bits_of_float (Genlibm.eval_bits g patterns.(i)) in
      let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
      if not (Int64.equal s k) then
        Alcotest.failf "windowed slot %d: scalar %Lx, kernel %Lx" i s k
    end
  done

let test_bounds_rejected () =
  let g = generate_ok Oracle.Log2 Polyeval.EstrinFma in
  let src = Genlibm.create_src 8 and dst = Genlibm.create_dst 8 in
  let oob lo hi () = Genlibm.eval_bits_into g ~src ~dst ~lo ~hi in
  let exn = Invalid_argument "Genlibm.eval_bits_into: chunk outside the buffers" in
  Alcotest.check_raises "negative lo" exn (oob (-1) 4);
  Alcotest.check_raises "hi past src" exn (oob 0 9);
  Alcotest.check_raises "hi below lo" exn (oob 5 4);
  let short = Genlibm.create_dst 4 in
  Alcotest.check_raises "hi past dst" exn (fun () ->
      Genlibm.eval_bits_into g ~src ~dst:short ~lo:0 ~hi:8)

(* ---------- serve batch kernels at -j 1 and -j 4 ---------- *)

let with_cache_dir f = Test_tmp.with_store "rlibm-kernels-test-" (fun _ -> f ())

let with_jobs j f =
  let prev = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let test_serve_batch_into_jobs () =
  with_cache_dir (fun () ->
      let specs =
        [
          (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
          (Oracle.Log2, Polyeval.Horner, tiny_cfg);
        ]
      in
      let snap =
        match Serve.build specs with
        | Ok t -> t
        | Error err ->
            Alcotest.failf "snapshot build failed: %s"
              (Diag.Error.to_string err)
      in
      let inputs = all_patterns tiny in
      let n = Array.length inputs in
      List.iter
        (fun func ->
          let e =
            match Serve.find snap func with
            | Some e -> e
            | None -> Alcotest.failf "%s missing" (Oracle.name func)
          in
          let scalar =
            Array.map
              (fun x -> Int64.bits_of_float (Genlibm.eval_bits e.Serve.e_impl x))
              inputs
          in
          List.iter
            (fun j ->
              with_jobs j (fun () ->
                  let src = Genlibm.create_src n in
                  let dst = Genlibm.create_dst n in
                  Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
                  Serve.eval_batch_into snap func ~src ~dst;
                  Array.iteri
                    (fun i s ->
                      let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
                      if not (Int64.equal s k) then
                        Alcotest.failf "%s -j %d: input %Lx: scalar %Lx, batch %Lx"
                          (Oracle.name func) j inputs.(i) s k)
                    scalar))
            [ 1; 4 ])
        [ Oracle.Exp2; Oracle.Log2 ])

(* ---------- kernel table compensation = Reduction.compensate ---------- *)

let test_kernel_compensation () =
  List.iter
    (fun func ->
      let fam =
        Rlibm.Generate.family ~cfg:{ tiny_cfg with Rlibm.Config.pieces = 2 } func
      in
      let s = Rlibm.Reduction.scratch () in
      Array.iter
        (fun b ->
          if Softfp.is_finite tiny b then begin
            let x = Softfp.to_float tiny b in
            if fam.Rlibm.Reduction.shortcut x = None then begin
              s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
              fam.Rlibm.Reduction.reduce_into s;
              (* the table compensation of the kernel form must be the
                 same double as the reference compensation *)
              List.iter
                (fun v ->
                  let oc_ref = Rlibm.Reduction.compensate fam s v in
                  let oc_kernel =
                    match fam.Rlibm.Reduction.kernel with
                    | Rlibm.Reduction.Exp_kernel ek ->
                        let i = s.Rlibm.Reduction.sn - ek.Rlibm.Reduction.ek_n_lo in
                        v *. ek.Rlibm.Reduction.ek_pow.(i)
                        *. ek.Rlibm.Reduction.ek_pow_lo.(i)
                    | Rlibm.Reduction.Log_kernel _ ->
                        s.Rlibm.Reduction.sf.Rlibm.Reduction.sc +. v
                  in
                  if
                    not
                      (Int64.equal
                         (Int64.bits_of_float oc_ref)
                         (Int64.bits_of_float oc_kernel))
                  then
                    Alcotest.failf "%s: oc mismatch at %h, v = %h"
                      (Oracle.name func) x v)
                [ 1.5; 0x1.fffffffffffffp0; 0x1.0000000000001p-1; -1.25 ]
            end
          end)
        (all_patterns tiny))
    [ Oracle.Exp2; Oracle.Exp10; Oracle.Log2; Oracle.Log10 ]

(* ---------- sampled binary32 (multi-piece, wide exponents) ---------- *)

let b32_cache = Hashtbl.create 2

let generate_b32 func =
  match Hashtbl.find_opt b32_cache func with
  | Some r -> r
  | None ->
      let cfg = Rlibm.Config.float32_for func in
      let r =
        match
          Genlibm.generate_sampled ~cfg ~scheme:Polyeval.EstrinFma ~count:250
            ~seed:11 func
        with
        | Error msg, _, _ ->
            Alcotest.failf "%s binary32 sampled generation failed: %s"
              (Oracle.name func)
              (Diag.Error.to_string msg)
        | Ok g, sampled, _ -> (g, sampled)
      in
      Hashtbl.replace b32_cache func r;
      r

let test_binary32_sampled func =
  let g, sampled = generate_b32 func in
  let name = Printf.sprintf "%s/binary32" (Oracle.name func) in
  check_bit_identity (name ^ " sampled") g sampled;
  (* a fresh seeded batch over the whole 32-bit pattern space:
     non-finite rows, patterns the generator never saw, every
     piece of the piecewise polynomial *)
  let st = Random.State.make [| 2026 |] in
  let batch =
    Array.init 4096 (fun _ -> Random.State.int64 st (Int64.shift_left 1L 32))
  in
  check_bit_identity (name ^ " random batch") g batch

(* ---------- the floor replacement at t = -0.0 and negative integers ---------- *)

let test_reduce_negative_zero () =
  let s = Rlibm.Reduction.scratch () in
  let reduce fam x =
    s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
    fam.Rlibm.Reduction.reduce_into s;
    (Int64.bits_of_float s.Rlibm.Reduction.sf.Rlibm.Reduction.sr, s.Rlibm.Reduction.sn)
  in
  List.iter
    (fun func ->
      let fam =
        Rlibm.Generate.family ~cfg:{ tiny_cfg with Rlibm.Config.pieces = 2 } func
      in
      let scale =
        match fam.Rlibm.Reduction.kernel with
        | Rlibm.Reduction.Exp_kernel k -> k.Rlibm.Reduction.ek_scale
        | Rlibm.Reduction.Log_kernel _ -> Alcotest.fail "not an exponential"
      in
      let name = Oracle.name func in
      List.iter
        (fun x ->
          let r, n = reduce fam x in
          Alcotest.(check int64) (Printf.sprintf "%s r at %h" name x) 0L r;
          Alcotest.(check int) (Printf.sprintf "%s n at %h" name x) 0 n)
        [ -0.0; 0.0 ];
      (* inputs where t = x * scale is exactly a negative integer *)
      let hits = ref 0 in
      for k = 1 to 40 do
        let x0 = -.float_of_int k /. scale in
        List.iter
          (fun x ->
            let t = x *. scale in
            if t < 0.0 && Float.is_integer t then begin
              incr hits;
              let r, n = reduce fam x in
              Alcotest.(check int64) (Printf.sprintf "%s r at t = %g" name t) 0L r;
              Alcotest.(check int) (Printf.sprintf "%s n at t = %g" name t)
                (int_of_float t) n
            end)
          [ x0; Float.pred x0; Float.succ x0 ]
      done;
      if !hits = 0 then Alcotest.failf "%s: no input with integer t" name)
    [ Oracle.Exp; Oracle.Exp2; Oracle.Exp10 ]

(* ---------- the kernel's table decode = Softfp.to_float ---------- *)

let test_decode_exact () =
  List.iter
    (fun (ebits, prec) ->
      let fmt = Softfp.make_fmt ~ebits ~prec in
      let d = Rlibm.Reduction.decoder fmt in
      Softfp.iter_finite fmt (fun x ->
          let want = Int64.bits_of_float (Softfp.to_float fmt x) in
          let got = Int64.bits_of_float (Genlibm.decode_bits d x) in
          if not (Int64.equal want got) then
            Alcotest.failf "(%d, %d) pattern %Lx: to_float %Lx, decode %Lx" ebits
              prec x want got))
    [ (5, 8); (5, 11); (8, 8); (11, 4) ];
  (* (11, 4), the widest exponent field that fits in binary64, reaches
     the table's edge: weights below 2^-1022, none zero or infinite *)
  let scales = (Rlibm.Reduction.decoder (Softfp.make_fmt ~ebits:11 ~prec:4)).d_scale in
  Alcotest.(check bool) "(11, 4) has subnormal-double weights" true
    (Array.exists (fun w -> Float.abs w < 0x1p-1022) scales);
  Alcotest.(check bool) "(11, 4) weights all finite and nonzero" true
    (Array.for_all (fun w -> Float.is_finite w && w <> 0.0) scales)

(* ---------- the log pass on zeros and subnormals, no generation ---------- *)

(* (11, 4) is the widest exponent field that fits in binary64: its
   subnormals decode below 2^-1022, where the kernel's zero/subnormal
   branch rescales by 2^54 before splitting k and m, as the reference
   does.  Made-up coefficients, table and special input stand in for a
   generation: the kernel must equal eval_bits on every pattern,
   whatever the polynomial. *)
let test_log_subnormals_made_up () =
  let tin = Softfp.make_fmt ~ebits:11 ~prec:4 in
  List.iter
    (fun (func, log_b) ->
      let cfg =
        { (Rlibm.Config.mini_for func) with Rlibm.Config.tin; pieces = 2; table_bits = 3 }
      in
      let table =
        Array.init 8 (fun j -> log_b (1.0 +. (float_of_int j /. 8.0)))
      in
      let sv =
        {
          Rlibm.Generate.sv_data =
            [| [| 0x1p-60; 1.4426950408889634; -0.72 |];
               [| -0x1p-58; 1.4426950408889634; -0.7 |] |];
          sv_degrees = [| 2; 2 |];
          sv_rounds = [| 1; 1 |];
          sv_n_constraints = [| 0; 0 |];
          sv_specials = [ (3L, 0.5) ];
        }
      in
      let g =
        Rlibm.Generate.assemble ~table ~cfg ~scheme:Polyeval.EstrinFma ~func sv
      in
      check_bit_identity (Oracle.name func ^ " (11, 4)") g (all_patterns tin);
      (* the kernel takes the piece count from the data, the reduction
         from cfg: they must agree *)
      Alcotest.check_raises "data for one piece, two configured"
        (Invalid_argument "Generate.assemble: data for 1 pieces, 2 configured")
        (fun () ->
          ignore
            (Rlibm.Generate.assemble ~table ~cfg ~scheme:Polyeval.EstrinFma ~func
               { sv with sv_data = [| sv.Rlibm.Generate.sv_data.(0) |] })))
    [ (Oracle.Log2, Float.log2); (Oracle.Log, Float.log) ]

(* ---------- no allocation per call ---------- *)

(* A 64-element request is the common serving case: after a warm-up
   call, a call must not touch the minor heap at all — not per element,
   and not per call either (the kernel's scratch is on the C stack).
   Zeros and subnormals are included so the log pass's zero/subnormal
   branch runs too. *)
let test_kernel_allocation_free () =
  let n = 64 and calls = 200 in
  let st = Random.State.make [| 64 |] in
  let inputs =
    Array.init n (fun i ->
        if i < 4 then Int64.of_int i
        else Int64.of_int (Random.State.int st (1 lsl Softfp.width tiny)))
  in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
  List.iter
    (fun (func, scheme) ->
      let g = generate_ok func scheme in
      Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n;
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s/%s minor words over %d calls" (Oracle.name func)
           (Polyeval.scheme_name scheme) calls)
        0.0 words)
    [ (Oracle.Exp2, Polyeval.Horner); (Oracle.Log, Polyeval.EstrinFma) ]

(* ---------- batch shapes of the branch-free classification ---------- *)

let test_batch_shapes () =
  let shortcut g x =
    Softfp.is_finite g.Rlibm.Generate.cfg.Rlibm.Config.tin x
    && g.Rlibm.Generate.family.Rlibm.Reduction.shortcut
         (Softfp.to_float g.Rlibm.Generate.cfg.Rlibm.Config.tin x)
       <> None
  in
  let by_value fmt a =
    let a = Array.copy a in
    Array.sort (fun x y -> compare (Softfp.ordinal fmt x) (Softfp.ordinal fmt y)) a;
    a
  in
  let check_chunks name g patterns len =
    let n = Array.length patterns in
    let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
    Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
    let lo = ref 0 in
    while !lo < n do
      let hi = Stdlib.min n (!lo + len) in
      Genlibm.eval_bits_into g ~src ~dst ~lo:!lo ~hi;
      lo := hi
    done;
    Array.iteri
      (fun i x ->
        let s = Int64.bits_of_float (Genlibm.eval_bits g x) in
        let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
        if not (Int64.equal s k) then
          Alcotest.failf "%s, chunks of %d: input %Lx: scalar %Lx, kernel %Lx" name
            len x s k)
      patterns
  in
  List.iter
    (fun func ->
      let g = generate_ok func Polyeval.Horner in
      let name = Oracle.name func in
      let all = all_patterns tiny in
      let settled =
        Array.of_list
          (List.filter (fun x -> (not (Softfp.is_finite tiny x)) || shortcut g x)
             (Array.to_list all))
      in
      let poly =
        Array.of_list
          (List.filter
             (fun x ->
               Softfp.is_finite tiny x
               && (not (Hashtbl.mem g.Rlibm.Generate.specials x))
               && not (shortcut g x))
             (Array.to_list all))
      in
      Alcotest.(check bool) (name ^ " has shortcut inputs") true
        (Array.exists (shortcut g) settled);
      check_bit_identity (name ^ " all settled") g settled;
      check_bit_identity (name ^ " all polynomial") g poly;
      check_bit_identity (name ^ " sorted") g (by_value tiny all);
      check_chunks name g all 1;
      check_chunks name g all 2;
      (* multi-piece: binary32 exp2 has 16 pieces, log2 at binary32 one,
         so the log family also runs a three-piece tiny generation *)
      let g32, sampled = generate_b32 func in
      check_bit_identity (name ^ " binary32 sorted") g32 (by_value Softfp.binary32 sampled);
      check_chunks (name ^ " binary32") g32 sampled 2;
      let cfg3 = { tiny_cfg with Rlibm.Config.pieces = 3 } in
      match
        Cache.with_persistence false (fun () ->
            Pipeline.generate ~cfg:cfg3 ~scheme:Polyeval.Horner func)
      with
      | Ok g3 ->
          Alcotest.(check int) (name ^ " three pieces") 3
            (Array.length g3.Rlibm.Generate.pieces);
          check_bit_identity (name ^ " three pieces") g3 all;
          check_bit_identity (name ^ " three pieces, sorted") g3 (by_value tiny all)
      | Error e ->
          Alcotest.failf "%s three-piece generation failed: %s" name
            (Diag.Error.to_string e))
    [ Oracle.Exp2; Oracle.Log2 ]

(* ---------- edges of the vector loops and of the blocks ---------- *)

(* The kernel's block length, BLOCK in genlibm_stubs.c. *)
let block = 512

(* Every pass is a loop the compiler vectorizes, with a scalar prologue
   and epilogue around the vector body, run block by block.  Windows
   starting at lo = 0..8 (every alignment of the buffers) and of every
   length 0..33 (every remainder past 4- and 8-lane bodies, and bodies
   that never run), plus windows of BLOCK - 1, BLOCK, BLOCK + 1 and
   2 BLOCK + 3 elements at lo 0 and 7 (a last block of every kind),
   chunking the exhaustive mini patterns, must each equal the scalar
   reference and leave the slots before lo untouched. *)
let test_vector_edges () =
  List.iter
    (fun func ->
      let g = generate_ok func Polyeval.Horner in
      let patterns = all_patterns tiny in
      let n = Array.length patterns in
      let want = Array.map (fun x -> Int64.bits_of_float (Genlibm.eval_bits g x)) patterns in
      let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
      Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
      let windows =
        List.concat_map (fun lo -> List.init 34 (fun len -> (lo, len))) (List.init 9 Fun.id)
        @ List.concat_map
            (fun lo -> List.map (fun len -> (lo, len)) [ block - 1; block; block + 1; (2 * block) + 3 ])
            [ 0; 7 ]
      in
      List.iter
        (fun (lo, len) ->
          Bigarray.Array1.fill dst 42.0;
          if len = 0 then Genlibm.eval_bits_into g ~src ~dst ~lo ~hi:lo
          else begin
            let at = ref lo in
            while !at < n do
              let hi = Stdlib.min n (!at + len) in
              Genlibm.eval_bits_into g ~src ~dst ~lo:!at ~hi;
              at := hi
            done
          end;
          for i = 0 to n - 1 do
            let got = Int64.bits_of_float (Bigarray.Array1.get dst i) in
            let expect = if i < lo || len = 0 then Int64.bits_of_float 42.0 else want.(i) in
            if not (Int64.equal got expect) then
              Alcotest.failf "%s, lo %d, windows of %d: slot %d (input %Lx): %Lx, want %Lx"
                (Oracle.name func) lo len i patterns.(i) got expect
          done)
        windows)
    [ Oracle.Exp2; Oracle.Log ]

(* binary32 exp2 (16 pieces) on one batch that mixes every settled kind
   with polynomial inputs: +/-0, subnormals, +/-Inf, NaNs, and the
   patterns at and around the shortcut's cuts (t = x for exp2), each
   followed by a polynomial input.  A made-up special input among them
   runs the scalar special-table pass after the vector pass.  The mix
   is repeated until the batch spans more than two blocks, so it meets
   every block of the call, at different offsets. *)
let test_binary32_mixed () =
  let g, sampled = generate_b32 Oracle.Exp2 in
  let ek =
    match g.Rlibm.Generate.family.Rlibm.Reduction.kernel with
    | Rlibm.Reduction.Exp_kernel ek -> ek
    | Rlibm.Reduction.Log_kernel _ -> Alcotest.fail "exp2 has no exp kernel"
  in
  Alcotest.(check int) "binary32 exp2 pieces" 16 (Array.length g.Rlibm.Generate.pieces);
  let fmt = Softfp.binary32 in
  let pat x = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFF_FFFFL in
  let around b = [ Int64.pred b; b; Int64.succ b ] in
  let at_cut t = List.concat_map around [ pat t; pat (-.t) ] in
  let settled =
    [ 0L; 0x8000_0000L; 1L; 0x8000_0001L; 0x007F_FFFFL; 0x807F_FFFFL;
      0x7F80_0000L; 0xFF80_0000L; 0x7FC0_0000L; 0xFFC0_0001L; 0x7F80_0001L ]
    @ at_cut ek.Rlibm.Reduction.ek_hi_cut
    @ at_cut ek.Rlibm.Reduction.ek_lo_cut
    @ at_cut ek.Rlibm.Reduction.ek_near_cut
  in
  let poly =
    List.filter
      (fun x ->
        g.Rlibm.Generate.family.Rlibm.Reduction.shortcut (Softfp.to_float fmt x) = None)
      (Array.to_list sampled)
  in
  let special = List.hd poly in
  let specials = Hashtbl.copy g.Rlibm.Generate.specials in
  Hashtbl.replace specials special 0.5;
  let pairs =
    Hashtbl.fold (fun x v acc -> (Int64.to_int x, v) :: acc) specials []
    |> List.sort compare |> Array.of_list
  in
  let g =
    { g with
      Rlibm.Generate.specials;
      spec_keys = Array.map fst pairs;
      spec_vals = Array.map snd pairs }
  in
  let rec interleave s p =
    match (s, p) with
    | x :: s', y :: p' -> x :: y :: interleave s' p'
    | [], p -> p
    | s, [] -> s
  in
  let mix = Array.of_list (interleave settled poly) in
  let batch = Array.concat (List.init ((2 * block / Array.length mix) + 1) (fun _ -> mix)) in
  Alcotest.(check bool) "mixed batch spans more than two blocks" true
    (Array.length batch > 2 * block);
  check_bit_identity "exp2/binary32 mixed" g batch

let suite =
  List.map
    (fun (func, scheme) ->
      ( Printf.sprintf "%s/%s kernel = scalar (exhaustive)" (Oracle.name func)
          (Polyeval.scheme_name scheme),
        `Slow,
        test_exhaustive func scheme ))
    combos
  @ [
      ("chunk window leaves other slots untouched", `Slow, test_window_untouched);
      ("chunk bounds rejected", `Slow, test_bounds_rejected);
      ("serve batch kernel at -j 1 and -j 4", `Slow, test_serve_batch_into_jobs);
      ( "table compensation = compensate (all families)",
        `Quick,
        test_kernel_compensation );
      ( "exp2/binary32 sampled batches",
        `Slow,
        fun () -> test_binary32_sampled Oracle.Exp2 );
      ( "log2/binary32 sampled batches",
        `Slow,
        fun () -> test_binary32_sampled Oracle.Log2 );
      ("reduce_into at t = -0.0 and negative integers", `Quick, test_reduce_negative_zero);
      ("table decode = Softfp.to_float", `Quick, test_decode_exact);
      ( "log zeros and subnormals at (11, 4), made-up polynomial",
        `Quick,
        test_log_subnormals_made_up );
      ("batch shapes: settled, polynomial, sorted, pieces, chunks", `Slow, test_batch_shapes);
      ("no minor allocation per 64-element call", `Slow, test_kernel_allocation_free);
      ( "vector loop edges: windows lo 0..8, lengths 0..33 and around BLOCK",
        `Slow,
        test_vector_edges );
      ("exp2/binary32 mixed settled and polynomial batch", `Slow, test_binary32_mixed);
    ]
