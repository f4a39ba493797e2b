(* Temporary directories for the test suites: each one is removed, with
   everything in it, when the scope that created it ends. *)

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
