(* Fixtures shared by the test suites: temporary directories, each one
   removed with everything in it when the scope that created it ends; the
   tiny generation config; and one memo of generated functions. *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [with_dir prefix f] runs [f] on a fresh directory named [prefix-...]
   under the temp dir and removes it afterwards. *)
let with_dir prefix f =
  let d = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree d) (fun () -> f d)

(* [with_store prefix f]: [with_dir], with the artifact store pointed at
   the directory for the scope of [f] (other suites share the process). *)
let with_store prefix f =
  with_dir prefix (fun d ->
      let saved = Cache.dir () in
      Cache.set_dir d;
      Fun.protect ~finally:(fun () -> Cache.set_dir saved) (fun () -> f d))

(* The tiny universe most suites generate in: 4 exponent bits, 7 bits of
   precision, an 8-entry log table.  [gen_golden.ml] keeps its own copy
   (a separate executable), which must stay equal to this one. *)
let tiny_cfg =
  {
    Rlibm.Config.default_mini with
    Rlibm.Config.tin = Softfp.make_fmt ~ebits:4 ~prec:7;
    table_bits = 3;
    max_specials = 40;
    max_rounds = 20;
  }

(* Generation is expensive and several suites only read the same
   functions, so the results are memoized for the whole test run, keyed
   by (function, scheme, config).  Persistence is off so every run of
   the suite generates afresh rather than loading a stored polynomial. *)
let generated = Hashtbl.create 64

let generate ~cfg ~scheme func =
  let key = (func, scheme, cfg) in
  match Hashtbl.find_opt generated key with
  | Some r -> r
  | None ->
      let r =
        Cache.with_persistence false (fun () ->
            Pipeline.generate ~cfg ~scheme func)
      in
      Hashtbl.replace generated key r;
      r
