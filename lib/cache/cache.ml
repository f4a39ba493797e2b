(* Versioned, checksummed binary artifact store with atomic publish and
   quarantine.  See cache.mli for the contract.

   On-disk layout (all integers big-endian):

     offset 0   8 bytes   magic "RLBMCSH1"
     offset 8   u32       container format version
     offset 12  u32       key length K
     offset 16  K bytes   full store key
     ...        u32       payload length N
     ...        u32       CRC-32 (IEEE) of the payload
     ...        N bytes   payload (Marshal blob)

   The file length must equal the header-implied length exactly; anything
   else (truncation, appended garbage) is rejected before Marshal runs.

   All raw I/O goes through Fault.Fs so the fault-injection substrate can
   exercise every failure path deterministically; cleanup of our own temp
   files after a failure deliberately bypasses it (plain Sys.remove) so
   cleanup never consumes an injection site. *)

let magic = "RLBMCSH1"
let format_version = 1

(* ---------- location / enablement ---------- *)

let forced_dir = ref None

let dir () =
  match !forced_dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "RLIBM_CACHE_DIR" with
      | Some d when d <> "" -> d
      | _ -> ".oracle-cache")

let set_dir d = forced_dir := Some d

(* Process-local persistence override: checked before the environment,
   so tests and embedders can turn the store off (or force it on) for a
   scope without mutating the process environment — [Unix.putenv] is
   global, races with concurrent domains, and leaks into child
   processes. *)
let persistence_override = ref None

let set_persistence o = persistence_override := o

let enabled () =
  match !persistence_override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt "RLIBM_NO_DISK_CACHE" with
      | Some s when s <> "" -> false
      | _ -> true)

let with_persistence b f =
  let prev = !persistence_override in
  persistence_override := Some b;
  Fun.protect ~finally:(fun () -> persistence_override := prev) f

let sanitize_key key =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    key

let path_of_key key = Filename.concat (dir ()) (sanitize_key key)

(* ---------- counters ---------- *)

type stats = {
  hits : int;
  misses : int;
  corrupt_rejected : int;
  retried : int;
  bytes_read : int;
  bytes_written : int;
}

let c_hits = Atomic.make 0
let c_misses = Atomic.make 0
let c_corrupt = Atomic.make 0
let c_retried = Atomic.make 0
let c_bytes_read = Atomic.make 0
let c_bytes_written = Atomic.make 0

(* Per-process unique suffix source for temp and quarantine names. *)
let name_counter = Atomic.make 0

(* Per-kind counters: one mutable record per artifact kind, guarded by a
   mutex (loads normally run on the driver domain, but nothing stops a
   worker from touching the store). *)
type kind_counters = {
  mutable k_hits : int;
  mutable k_misses : int;
  mutable k_corrupt : int;
  mutable k_retried : int;
  mutable k_bytes_read : int;
  mutable k_bytes_written : int;
}

let kind_mutex = Mutex.create ()
let kind_table : (string, kind_counters) Hashtbl.t = Hashtbl.create 8

let with_kind kind f =
  Mutex.protect kind_mutex (fun () ->
      let c =
        match Hashtbl.find_opt kind_table kind with
        | Some c -> c
        | None ->
            let c =
              {
                k_hits = 0;
                k_misses = 0;
                k_corrupt = 0;
                k_retried = 0;
                k_bytes_read = 0;
                k_bytes_written = 0;
              }
            in
            Hashtbl.replace kind_table kind c;
            c
      in
      f c)

let stats () =
  {
    hits = Atomic.get c_hits;
    misses = Atomic.get c_misses;
    corrupt_rejected = Atomic.get c_corrupt;
    retried = Atomic.get c_retried;
    bytes_read = Atomic.get c_bytes_read;
    bytes_written = Atomic.get c_bytes_written;
  }

let stats_by_kind () =
  Mutex.protect kind_mutex (fun () ->
      Hashtbl.fold
        (fun kind c acc ->
          ( kind,
            {
              hits = c.k_hits;
              misses = c.k_misses;
              corrupt_rejected = c.k_corrupt;
              retried = c.k_retried;
              bytes_read = c.k_bytes_read;
              bytes_written = c.k_bytes_written;
            } )
          :: acc)
        kind_table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ c_hits; c_misses; c_corrupt; c_retried; c_bytes_read; c_bytes_written ];
  Mutex.protect kind_mutex (fun () -> Hashtbl.reset kind_table)

let pp_stats fmt s =
  Format.fprintf fmt
    "artifact cache [%s]: %d hits, %d misses, %d corrupt-rejected, %d \
     retried, %d bytes read, %d bytes written"
    (dir ()) s.hits s.misses s.corrupt_rejected s.retried s.bytes_read
    s.bytes_written

let pp_stats_by_kind fmt kinds =
  List.iter
    (fun (kind, s) ->
      Format.fprintf fmt "@\n  %-12s %d hits, %d misses, %d corrupt-rejected, \
                          %d retried, %d bytes read, %d bytes written"
        kind s.hits s.misses s.corrupt_rejected s.retried s.bytes_read
        s.bytes_written)
    kinds

let pp_report fmt () =
  pp_stats fmt (stats ());
  pp_stats_by_kind fmt (stats_by_kind ())

(* ---------- CRC-32 (IEEE 802.3, the zlib polynomial) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          (Int32.shift_right_logical !c 8)
          t.(Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---------- encode / decode ---------- *)

let encode ~key payload =
  let b = Buffer.create (String.length payload + String.length key + 32) in
  Buffer.add_string b magic;
  Buffer.add_int32_be b (Int32.of_int format_version);
  Buffer.add_int32_be b (Int32.of_int (String.length key));
  Buffer.add_string b key;
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_int32_be b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

type reject =
  | Truncated
  | Bad_magic
  | Bad_version
  | Bad_key
  | Bad_checksum
  | Bad_payload

let decode ~key data =
  let len = String.length data in
  (* u32 fields masked to a non-negative int so garbage lengths cannot
     wrap the bounds checks below. *)
  let u32 off = Int32.to_int (String.get_int32_be data off) land 0xFFFFFFFF in
  if len < 16 then Error Truncated
  else if not (String.equal (String.sub data 0 8) magic) then Error Bad_magic
  else if u32 8 <> format_version then Error Bad_version
  else
    let klen = u32 12 in
    if len < 16 + klen + 8 then Error Truncated
    else if not (String.equal (String.sub data 16 klen) key) then Error Bad_key
    else
      let plen = u32 (16 + klen) in
      let crc = String.get_int32_be data (16 + klen + 4) in
      let poff = 16 + klen + 8 in
      if len <> poff + plen then Error Truncated
      else
        let payload = String.sub data poff plen in
        if not (Int32.equal (crc32 payload) crc) then Error Bad_checksum
        else
          match Marshal.from_string payload 0 with
          | v -> Ok v
          | exception _ -> Error Bad_payload

(* ---------- filesystem plumbing ---------- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Fault.Fs.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> () (* lost a creation race *)
  end

(* EINTR-safe whole-file read; short reads (signal-interrupted or
   injected) just continue the loop. *)
let read_fd fd =
  let bufsz = 65536 in
  let buf = Bytes.create bufsz in
  let b = Buffer.create bufsz in
  let rec go () =
    match Fault.Fs.read fd buf 0 bufsz with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_file path =
  let fd = Fault.Fs.open_read path in
  Fun.protect ~finally:(fun () -> Fault.Fs.close fd) (fun () -> read_fd fd)

(* EINTR-safe full write: restart on EINTR, continue after short
   writes until every byte is down. *)
let write_all fd data =
  let buf = Bytes.unsafe_of_string data in
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Fault.Fs.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let unique_suffix () =
  Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add name_counter 1)

(* Move a rejected file aside so it is never read again but stays
   available for post-mortems; the caller then regenerates. *)
let quarantine path =
  try Sys.rename path (Printf.sprintf "%s.corrupt-%s" path (unique_suffix ()))
  with Sys_error _ -> ()

let detail_of_exn = function
  | Unix.Unix_error (e, fn, arg) ->
      Printf.sprintf "%s%s: %s" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e)
  | Sys_error detail -> detail
  | e -> Printexc.to_string e

(* ---------- bounded deterministic retry ---------- *)

(* Errnos worth one more try: transient contention or conditions an
   operator (or a temp reaper) may clear.  EINTR is NOT here — it is
   restarted inside the read/write loops and never counted. *)
let transient_errno = function
  | Unix.EIO | Unix.ENOSPC | Unix.EAGAIN | Unix.EBUSY -> true
  | _ -> false

(* Fixed backoff schedule — length bounds the retries (3 attempts
   total), values are the sleeps between them.  No jitter: a faulted
   run replays identically. *)
let retry_backoff = [| 0.01; 0.02 |]

let with_retry ~kind ~op f =
  let rec go attempt =
    try f ()
    with
    | Unix.Unix_error (e, _, _)
    when transient_errno e && attempt <= Array.length retry_backoff
    ->
      ignore (Atomic.fetch_and_add c_retried 1);
      with_kind kind (fun c -> c.k_retried <- c.k_retried + 1);
      Diag.event ~level:Diag.Warn "cache.retry" (fun () ->
          [
            ("kind", Diag.String kind);
            ("op", Diag.String op);
            ("errno", Diag.String (Unix.error_message e));
            ("attempt", Diag.Int attempt);
          ]);
      Unix.sleepf retry_backoff.(attempt - 1);
      go (attempt + 1)
  in
  go 1

(* ---------- stale temp reaping ---------- *)

(* A temp older than this is reaped even when its writer pid is alive
   (pids recycle); a dead writer's temps are reaped regardless of age. *)
let stale_temp_age = 900.0

(* [suffix_after marker name] finds the first occurrence of [marker]
   and returns what follows it. *)
let suffix_after marker name =
  let ml = String.length marker and nl = String.length name in
  let rec scan i =
    if i + ml > nl then None
    else if String.equal (String.sub name i ml) marker then
      Some (String.sub name (i + ml) (nl - i - ml))
    else scan (i + 1)
  in
  scan 0

(* Writer pid embedded in a [.tmp-<pid>-<counter>] name. *)
let temp_owner_pid name =
  match suffix_after ".tmp-" name with
  | None -> None
  | Some s -> (
      match String.index_opt s '-' with
      | None -> None
      | Some i -> int_of_string_opt (String.sub s 0 i))

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: exists, not ours *)

let file_age ~now path =
  match Unix.stat path with
  | st -> now -. st.Unix.st_mtime
  | exception Unix.Unix_error _ -> 0.

(* Is this temp abandoned?  Our own live temps are never stale. *)
let temp_is_stale ~now ~max_age path name =
  match temp_owner_pid name with
  | Some pid when pid = Unix.getpid () -> false
  | Some pid when not (pid_alive pid) -> true
  | Some _ | None -> file_age ~now path > max_age

(* Reap abandoned [.tmp-*] files in [d].  Plain [Sys.remove], outside
   {!Fault.Fs}: reaping is opportunistic cleanup and must never consume
   or shift fault-injection sites. *)
let reap_stale_temps d =
  match Sys.readdir d with
  | exception Sys_error _ -> ()
  | names ->
      Array.sort compare names;
      let now = Unix.gettimeofday () in
      Array.iter
        (fun name ->
          if suffix_after ".tmp-" name <> None then
            let path = Filename.concat d name in
            if temp_is_stale ~now ~max_age:stale_temp_age path name then
              match Sys.remove path with
              | () ->
                  Diag.event ~level:Diag.Warn "cache.reap-temp" (fun () ->
                      [ ("path", Diag.String path) ])
              | exception Sys_error _ -> ())
        names

let reaped_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let reap_mutex = Mutex.create ()

(* First touch of a store directory in this process sweeps the temps a
   crashed writer left behind. *)
let maybe_reap d =
  let fresh =
    Mutex.protect reap_mutex (fun () ->
        if Hashtbl.mem reaped_dirs d then false
        else begin
          Hashtbl.add reaped_dirs d ();
          true
        end)
  in
  if fresh && Sys.file_exists d then reap_stale_temps d

(* ---------- store / load ---------- *)

let reject_reason = function
  | Truncated -> "truncated or wrong length"
  | Bad_magic -> "bad magic"
  | Bad_version -> "container format version mismatch"
  | Bad_key -> "stored under a different key"
  | Bad_checksum -> "payload checksum mismatch"
  | Bad_payload -> "payload failed to deserialize"

(* One publish attempt: unique O_EXCL temp (concurrent writers — or a
   stale temp from a crashed run that recycled our PID — can never open
   the same file), full write, fsync so the data is durable before it
   becomes visible, then atomic rename. *)
let publish path data =
  let rec attempt tries =
    let tmp = Printf.sprintf "%s.tmp-%s" path (unique_suffix ()) in
    match Fault.Fs.open_excl tmp 0o644 with
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 ->
        attempt (tries - 1)
    | fd -> (
        let closed = ref false in
        match
          write_all fd data;
          Fault.Fs.fsync fd;
          Fault.Fs.close fd;
          closed := true;
          Fault.Fs.rename tmp path
        with
        | () -> ()
        | exception e ->
            if not !closed then (
              try Unix.close fd with Unix.Unix_error _ -> ());
            (try Sys.remove tmp with Sys_error _ -> ());
            raise e)
  in
  attempt 3

let store ~kind ~key v =
  if not (enabled ()) then Ok ()
  else begin
    let path = path_of_key key in
    match
      mkdir_p (dir ());
      maybe_reap (dir ());
      encode ~key (Marshal.to_string v [])
    with
    | exception e ->
        Diag.event ~level:Diag.Warn "cache.store-error" (fun () ->
            [ ("kind", Diag.String kind); ("key", Diag.String key) ]);
        Error (Diag.Error.Store_io { path; detail = detail_of_exn e })
    | data -> (
        match with_retry ~kind ~op:"publish" (fun () -> publish path data) with
        | () ->
            ignore (Atomic.fetch_and_add c_bytes_written (String.length data));
            with_kind kind (fun c ->
                c.k_bytes_written <- c.k_bytes_written + String.length data);
            Diag.event "cache.publish" (fun () ->
                [
                  ("kind", Diag.String kind);
                  ("key", Diag.String key);
                  ("bytes", Diag.Int (String.length data));
                ]);
            Ok ()
        | exception e ->
            Diag.event ~level:Diag.Warn "cache.store-error" (fun () ->
                [ ("kind", Diag.String kind); ("key", Diag.String key) ]);
            Error (Diag.Error.Store_io { path; detail = detail_of_exn e }))
  end

let load ~kind ~key =
  if not (enabled ()) then Ok None
  else begin
    maybe_reap (dir ());
    let path = path_of_key key in
    let miss () =
      ignore (Atomic.fetch_and_add c_misses 1);
      with_kind kind (fun c -> c.k_misses <- c.k_misses + 1);
      Diag.event "cache.miss" (fun () ->
          [ ("kind", Diag.String kind); ("key", Diag.String key) ]);
      Ok None
    in
    if not (Sys.file_exists path) then miss ()
    else
      match with_retry ~kind ~op:"read" (fun () -> read_file path) with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
          (* Raced with a reaper or quarantine between the existence
             check and the open: a plain miss. *)
          miss ()
      | exception e ->
          (* The entry exists but cannot be read: a real I/O failure, not
             a miss — regenerating would not help the caller persist. *)
          Error (Diag.Error.Store_io { path; detail = detail_of_exn e })
      | data -> (
          match decode ~key data with
          | Ok v ->
              ignore (Atomic.fetch_and_add c_hits 1);
              ignore (Atomic.fetch_and_add c_bytes_read (String.length data));
              with_kind kind (fun c ->
                  c.k_hits <- c.k_hits + 1;
                  c.k_bytes_read <- c.k_bytes_read + String.length data);
              Diag.event "cache.hit" (fun () ->
                  [
                    ("kind", Diag.String kind);
                    ("key", Diag.String key);
                    ("bytes", Diag.Int (String.length data));
                  ]);
              Ok (Some v)
          | Error reject ->
              quarantine path;
              ignore (Atomic.fetch_and_add c_corrupt 1);
              with_kind kind (fun c -> c.k_corrupt <- c.k_corrupt + 1);
              let reason = reject_reason reject in
              Diag.event ~level:Diag.Warn "cache.corrupt" (fun () ->
                  [
                    ("kind", Diag.String kind);
                    ("key", Diag.String key);
                    ("reason", Diag.String reason);
                  ]);
              Error
                (match reject with
                | Bad_key -> Diag.Error.Key_mismatch { kind; key }
                | _ -> Diag.Error.Corrupt_artifact { kind; key; reason }))
  end

(* ---------- fsck ---------- *)

type fsck_report = {
  fk_scanned : int;
  fk_valid : int;
  fk_quarantined : (string * string) list;
  fk_stale_temps : string list;
  fk_aged_corrupt : string list;
  fk_reaped : int;
}

let fsck_clean r =
  r.fk_quarantined = [] && r.fk_stale_temps = [] && r.fk_aged_corrupt = []

(* Pull the embedded key out of a header without knowing the key in
   advance (fsck has no keys, only files). *)
let embedded_key data =
  let len = String.length data in
  let u32 off = Int32.to_int (String.get_int32_be data off) land 0xFFFFFFFF in
  if len < 16 then Error Truncated
  else if not (String.equal (String.sub data 0 8) magic) then Error Bad_magic
  else if u32 8 <> format_version then Error Bad_version
  else
    let klen = u32 12 in
    if len < 16 + klen + 8 then Error Truncated
    else Ok (String.sub data 16 klen)

let fsck ?(repair = false) ?(max_age = 3600.0) () =
  let d = dir () in
  let empty =
    {
      fk_scanned = 0;
      fk_valid = 0;
      fk_quarantined = [];
      fk_stale_temps = [];
      fk_aged_corrupt = [];
      fk_reaped = 0;
    }
  in
  if not (Sys.file_exists d) then Ok empty
  else
    match Sys.readdir d with
    | exception Sys_error detail ->
        Error (Diag.Error.Store_io { path = d; detail })
    | names -> (
        Array.sort compare names;
        let now = Unix.gettimeofday () in
        let reaped = ref 0 in
        (* Plain Sys.remove for the same reason as the temp reaper:
           repair must not consume injection sites. *)
        let reap path =
          match Sys.remove path with
          | () ->
              incr reaped;
              Diag.event ~level:Diag.Warn "cache.fsck-reap" (fun () ->
                  [ ("path", Diag.String path) ])
          | exception Sys_error _ -> ()
        in
        let validate path name data =
          match embedded_key data with
          | Error reject -> Error (reject_reason reject)
          | Ok key -> (
              match (decode ~key data : (Obj.t, reject) result) with
              | Error reject -> Error (reject_reason reject)
              | Ok _ ->
                  if String.equal (sanitize_key key) name then Ok ()
                  else Error "filename does not match embedded key")
          |> function
          | Ok () -> Ok ()
          | Error reason ->
              quarantine path;
              Diag.event ~level:Diag.Warn "cache.fsck-quarantine" (fun () ->
                  [
                    ("path", Diag.String path); ("reason", Diag.String reason);
                  ]);
              Error reason
        in
        let step acc name =
          match acc with
          | Error _ as e -> e
          | Ok r -> (
              let path = Filename.concat d name in
              if suffix_after ".tmp-" name <> None then begin
                if temp_is_stale ~now ~max_age path name then begin
                  if repair then reap path;
                  Ok { r with fk_stale_temps = path :: r.fk_stale_temps }
                end
                else Ok r
              end
              else if suffix_after ".corrupt-" name <> None then begin
                if file_age ~now path > max_age then begin
                  if repair then reap path;
                  Ok { r with fk_aged_corrupt = path :: r.fk_aged_corrupt }
                end
                else Ok r
              end
              else if not (Sys.is_regular_file path) then Ok r
              else
                match read_file path with
                | exception e ->
                    Error
                      (Diag.Error.Store_io { path; detail = detail_of_exn e })
                | data -> (
                    let r = { r with fk_scanned = r.fk_scanned + 1 } in
                    match validate path name data with
                    | Ok () -> Ok { r with fk_valid = r.fk_valid + 1 }
                    | Error reason ->
                        Ok
                          {
                            r with
                            fk_quarantined =
                              (path, reason) :: r.fk_quarantined;
                          }))
        in
        match Array.fold_left step (Ok empty) names with
        | Error _ as e -> e
        | Ok r ->
            Ok
              {
                r with
                fk_quarantined = List.rev r.fk_quarantined;
                fk_stale_temps = List.rev r.fk_stale_temps;
                fk_aged_corrupt = List.rev r.fk_aged_corrupt;
                fk_reaped = !reaped;
              })

let pp_fsck_report fmt r =
  Format.fprintf fmt
    "store fsck [%s]: %d entries scanned, %d valid, %d quarantined, %d stale \
     temps, %d aged quarantine files, %d reaped"
    (dir ()) r.fk_scanned r.fk_valid
    (List.length r.fk_quarantined)
    (List.length r.fk_stale_temps)
    (List.length r.fk_aged_corrupt)
    r.fk_reaped;
  List.iter
    (fun (p, reason) ->
      Format.fprintf fmt "@\n  quarantined %s (%s)" p reason)
    r.fk_quarantined;
  List.iter
    (fun p -> Format.fprintf fmt "@\n  stale temp %s" p)
    r.fk_stale_temps;
  List.iter
    (fun p -> Format.fprintf fmt "@\n  aged quarantine %s" p)
    r.fk_aged_corrupt
