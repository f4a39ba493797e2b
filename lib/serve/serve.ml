(* Servable libm snapshot.  See serve.mli for the contract.

   The persisted payload is a list of closure-free stored entries: the
   request triple, the polynomial stage's solved record, and — for the
   logarithm family — the reduction table, so a warm load touches
   exactly one store entry and rebuilds everything else locally
   (Polyeval.of_data + Reduction.make over the stored table). *)

type entry = {
  e_func : Oracle.func;
  e_scheme : Polyeval.scheme;
  e_cfg : Rlibm.Config.t;
  e_impl : Genlibm.t;
}

type t = {
  t_key : string;
  t_entries : entry list;
  t_index : (string, entry) Hashtbl.t;
      (* Oracle.name -> first entry serving that function.  Built once at
         construction so [find] is a hash probe on a string key instead
         of a linear scan comparing whole entries with polymorphic
         equality (which walked the assembled implementations). *)
}

let mk key entries =
  let idx = Hashtbl.create (List.length entries * 2) in
  List.iter
    (fun e ->
      let name = Oracle.name e.e_func in
      if not (Hashtbl.mem idx name) then Hashtbl.add idx name e)
    entries;
  { t_key = key; t_entries = entries; t_index = idx }

(* Marshal-stable stored form.  Every field is scalar data: the func and
   scheme are constant constructors, the config a record of ints and
   formats, the solved record float/int arrays, the table a float
   array.  Bump [snapshot_version] whenever this layout changes. *)
type stored_entry = {
  se_func : Oracle.func;
  se_scheme : Polyeval.scheme;
  se_cfg : Rlibm.Config.t;
  se_solved : Rlibm.Generate.solved;
  se_table : float array option;  (* log-family reduction table *)
}

let snapshot_version = 1

let snapshot_key specs =
  let polys =
    List.map (fun (f, scheme, cfg) -> Pipeline.poly_key ~cfg ~scheme f) specs
  in
  (* MD5 of the joined per-entry poly keys: those keys already pin every
     upstream knob and stage-layout version, and the digest keeps the
     store filename bounded for large snapshots. *)
  Printf.sprintf "snapshot-%de-%s-v%d" (List.length specs)
    (Digest.to_hex (Digest.string (String.concat "\n" polys)))
    snapshot_version

let key t = t.t_key
let entries t = t.t_entries
let find t func = Hashtbl.find_opt t.t_index (Oracle.name func)

(* The logarithms' reduction table, which the stored entry carries so
   that a warm load needs no other store entry; the one
   Generate.family would read without it. *)
let table_of ~(cfg : Rlibm.Config.t) func =
  if Funcspec.is_exp_family func then None
  else Some (Rlibm.Reduction.log_table func ~table_bits:cfg.table_bits)

(* Rebuild the runnable entry from stored data only: the stored table
   goes straight into the reduction.
   @raise Invalid_argument on foreign data or a mis-sized table (via
   Generate.assemble). *)
let assemble_stored (se : stored_entry) =
  let impl =
    Rlibm.Generate.assemble ?table:se.se_table ~cfg:se.se_cfg
      ~scheme:se.se_scheme ~func:se.se_func se.se_solved
  in
  {
    e_func = se.se_func;
    e_scheme = se.se_scheme;
    e_cfg = se.se_cfg;
    e_impl = impl;
  }

(* A stored snapshot is only trusted when every entry matches its
   request exactly — a digest collision or a stale layout must fall
   back to a rebuild, never serve the wrong function. *)
let stored_matches specs stored =
  List.length specs = List.length stored
  && List.for_all2
       (fun (f, scheme, cfg) se ->
         se.se_func = f && se.se_scheme = scheme && se.se_cfg = cfg)
       specs stored

(* The name index is first-entry-wins, so a duplicate function in the
   spec list would silently shadow every later (func, scheme, cfg)
   behind the first: [find]/[eval_batch_into] would serve a different
   polynomial than the caller requested.  Reject the ambiguity up
   front. *)
let duplicate_func specs =
  let seen = Hashtbl.create 8 in
  List.find_opt
    (fun (f, _, _) ->
      let name = Oracle.name f in
      Hashtbl.mem seen name
      ||
      (Hashtbl.add seen name ();
       false))
    specs

let build ?(strict = false) specs =
  match duplicate_func specs with
  | Some (f, _, _) ->
      Error
        (Diag.Error.Bad_config
           {
             what =
               Printf.sprintf
                 "duplicate function %s in snapshot spec (lookups are \
                  per-function, so later entries would be shadowed)"
                 (Oracle.name f);
           })
  | None -> (
      let key = snapshot_key specs in
      let snapshot_event status =
        Diag.event "serve.snapshot" (fun () ->
            [ ("key", Diag.String key); ("status", Diag.String status) ])
      in
      let rebuild () =
        Diag.span "serve.build"
          (fun () ->
            [
              ("key", Diag.String key);
              ("entries", Diag.Int (List.length specs));
            ])
          (fun () ->
            let rec resolve acc = function
              | [] -> Ok (List.rev acc)
              | (f, scheme, cfg) :: rest -> (
                  match Pipeline.solved ~cfg ~scheme f with
                  | Error _ as e -> e
                  | Ok sv ->
                      let se =
                        {
                          se_func = f;
                          se_scheme = scheme;
                          se_cfg = cfg;
                          se_solved = sv;
                          se_table = table_of ~cfg f;
                        }
                      in
                      resolve (se :: acc) rest)
            in
            match resolve [] specs with
            | Error e -> Error e
            | Ok stored ->
                (* Assembled before the store: an entry that does not
                   assemble is never persisted. *)
                let entries = List.map assemble_stored stored in
                ignore (Cache.store ~kind:"snapshot" ~key stored);
                snapshot_event "persisted";
                Ok (mk key entries))
      in
      match
        (Cache.load ~kind:"snapshot" ~key
          : (stored_entry list option, Diag.Error.t) result)
      with
      | Ok (Some stored) when stored_matches specs stored -> (
          try
            let t = mk key (List.map assemble_stored stored) in
            snapshot_event "loaded";
            Ok t
          with Invalid_argument _ ->
            snapshot_event "stale";
            rebuild ())
      | Ok (Some _) ->
          snapshot_event "mismatch";
          rebuild ()
      | Ok None -> rebuild ()
      | Error e when strict ->
          (* Strict mode: a snapshot that exists but fails validation is
             surfaced as the typed error rather than silently rebuilt.
             The store has already quarantined the file, so a retry
             rebuilds cleanly. *)
          snapshot_event "rejected";
          Error e
      | Error e ->
          (* Graceful degradation (default): the corrupt or unreadable
             snapshot is already quarantined/warned by the store, and
             every upstream artifact is still reachable through the
             pipeline — so serving regenerates instead of going down.
             The warn event keeps the corruption loud for operators. *)
          Diag.event ~level:Diag.Warn "serve.degraded" (fun () ->
              [
                ("key", Diag.String key);
                ("error", Diag.String (Diag.Error.to_string e));
              ]);
          rebuild ())


(* The static Parallel chunk grid partitions [0, n), each chunk runs the
   zero-allocation Genlibm kernel over its disjoint slice of the
   buffers — the chunking Genlibm.verify checks — so the output is
   bit-identical to the verified results and to the eval_bits
   reference at every job count and every batch size. *)
let eval_entry_chunked (e : entry) ~src ~dst n =
  Diag.event ~level:Diag.Debug "serve.batch-eval" (fun () ->
      [ ("func", Diag.String (Oracle.name e.e_func)); ("n", Diag.Int n) ]);
  Parallel.iter_chunks ~grain:Genlibm.kernel_grain n (fun lo hi ->
      Genlibm.eval_bits_into e.e_impl ~src ~dst ~lo ~hi)

let eval_batch_into t func ~src ~dst =
  match find t func with
  | None ->
      invalid_arg
        (Printf.sprintf "Serve.eval_batch_into: %s is not in this snapshot"
           (Oracle.name func))
  | Some e ->
      let n = Bigarray.Array1.dim src in
      if Bigarray.Array1.dim dst < n then
        invalid_arg "Serve.eval_batch_into: dst is shorter than src";
      eval_entry_chunked e ~src ~dst n
