(* Unified diagnostics substrate: typed errors + structured events.
   See diag.mli for the contract.  This module is a leaf — it may
   depend on unix only, so that cache/lp/parallel can all use it. *)

module Error = struct
  type t =
    | Store_io of { path : string; detail : string }
    | Corrupt_artifact of { kind : string; key : string; reason : string }
    | Key_mismatch of { kind : string; key : string }
    | Stage_conflict of { stage : string; key : string; detail : string }
    | Lp_infeasible of {
        func : string;
        scheme : string;
        piece : int;
        degree : int;
      }
    | Budget_exhausted of {
        func : string;
        scheme : string;
        piece : int;
        max_degree : int;
      }
    | Verification_failed of {
        func : string;
        scheme : string;
        wrong34 : int;
        wrong_narrow : int;
      }
    | Bad_config of { what : string }
    | Bad_spec of { name : string; suggestion : string option }
    | Shard_range of { index : int; count : int }

  let label = function
    | Store_io _ -> "store-io"
    | Corrupt_artifact _ -> "corrupt-artifact"
    | Key_mismatch _ -> "key-mismatch"
    | Stage_conflict _ -> "stage-conflict"
    | Lp_infeasible _ -> "lp-infeasible"
    | Budget_exhausted _ -> "budget-exhausted"
    | Verification_failed _ -> "verification-failed"
    | Bad_config _ -> "bad-config"
    | Bad_spec _ -> "bad-spec"
    | Shard_range _ -> "shard-range"

  let to_string = function
    | Store_io { path; detail } ->
        Printf.sprintf "store I/O error at %s: %s" path detail
    | Corrupt_artifact { kind; key; reason } ->
        Printf.sprintf "corrupt %s artifact %s: %s (quarantined)" kind key
          reason
    | Key_mismatch { kind; key } ->
        Printf.sprintf "%s artifact %s: stored under a different key" kind key
    | Stage_conflict { stage; key; detail } ->
        Printf.sprintf "stage %s artifact %s: %s" stage key detail
    | Lp_infeasible { func; scheme; piece; degree } ->
        Printf.sprintf "%s/%s piece %d: LP infeasible at degree %d" func
          scheme piece degree
    | Budget_exhausted { func; scheme; piece; max_degree } ->
        Printf.sprintf "%s/%s piece %d: no polynomial up to degree %d" func
          scheme piece max_degree
    | Verification_failed { func; scheme; wrong34; wrong_narrow } ->
        Printf.sprintf
          "%s/%s: verification failed (%d wrong at 34 bits, %d wrong narrow)"
          func scheme wrong34 wrong_narrow
    | Bad_config { what } -> what
    | Bad_spec { name; suggestion } -> (
        match suggestion with
        | Some s -> Printf.sprintf "unknown function %S (did you mean %s?)" name s
        | None -> Printf.sprintf "unknown function %S" name)
    | Shard_range { index; count } ->
        if count < 1 then
          Printf.sprintf "shard count must be positive (got %d)" count
        else Printf.sprintf "shard index %d outside [0, %d)" index count

  let exit_code = function
    | Bad_config _ | Bad_spec _ | Shard_range _ -> 2
    | Store_io _ -> 3
    | Corrupt_artifact _ | Key_mismatch _ -> 4
    | Stage_conflict _ -> 5
    | Lp_infeasible _ | Budget_exhausted _ -> 6
    | Verification_failed _ -> 7
end

type level = Quiet | Error | Warn | Info | Debug

let level_int = function
  | Quiet -> 0
  | Error -> 1
  | Warn -> 2
  | Info -> 3
  | Debug -> 4

let level_to_string = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "quiet" -> Ok Quiet
  | "error" -> Ok Error
  | "warn" | "warning" -> Ok Warn
  | "info" -> Ok Info
  | "debug" -> Ok Debug
  | _ ->
      Result.Error
        (Error.Bad_config
           {
             what =
               Printf.sprintf
                 "bad log level %S (expected quiet|error|warn|info|debug)" s;
           })

type value = Bool of bool | Int of int | Float of float | String of string
type binding = string * value

type ev = {
  ev_ts : float;
  ev_level : level;
  ev_name : string;
  ev_span : int option;
  ev_parent : int option;
  ev_fields : binding list;
}

type sink = { s_min : level; s_emit : ev -> unit }

(* The installed sinks plus the cached max level any of them listens at.
   [enabled] reads only the threshold (one atomic load); emission takes
   the mutex so multi-domain writers never interleave inside a sink. *)
let sinks : sink list ref = ref []
let threshold = Atomic.make 0
let emit_mutex = Mutex.create ()

let recompute_threshold () =
  Atomic.set threshold
    (List.fold_left (fun acc s -> max acc (level_int s.s_min)) 0 !sinks)

let set_sinks l =
  Mutex.protect emit_mutex (fun () ->
      sinks := l;
      recompute_threshold ())

let with_sinks l f =
  let saved = !sinks in
  set_sinks l;
  Fun.protect ~finally:(fun () -> set_sinks saved) f

let enabled l =
  let i = level_int l in
  i > 0 && i <= Atomic.get threshold

let emit ev =
  Mutex.protect emit_mutex (fun () ->
      List.iter
        (fun s ->
          if level_int ev.ev_level <= level_int s.s_min then s.s_emit ev)
        !sinks)

(* Span nesting is per-domain: each domain keeps its own stack, so a
   worker domain's spans nest among themselves and never interleave with
   the driver's stack.  Ids are globally unique. *)
let next_span = Atomic.make 1

let span_stack : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_span () =
  match !(Domain.DLS.get span_stack) with [] -> None | id :: _ -> Some id

let event ?(level = Info) name fields =
  if enabled level then
    emit
      {
        ev_ts = Unix.gettimeofday ();
        ev_level = level;
        ev_name = name;
        ev_span = None;
        ev_parent = current_span ();
        ev_fields = fields ();
      }

let span ?(level = Info) name fields ?result body =
  if not (enabled level) then body ()
  else begin
    let id = Atomic.fetch_and_add next_span 1 in
    let stack = Domain.DLS.get span_stack in
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    emit
      {
        ev_ts = Unix.gettimeofday ();
        ev_level = level;
        ev_name = name ^ ".begin";
        ev_span = Some id;
        ev_parent = parent;
        ev_fields = fields ();
      };
    stack := id :: !stack;
    let pop () =
      match !stack with top :: rest when top = id -> stack := rest | _ -> ()
    in
    let t0 = Unix.gettimeofday () in
    match body () with
    | v ->
        pop ();
        let fields =
          ("seconds", Float (Unix.gettimeofday () -. t0))
          :: ("ok", Bool true)
          :: (match result with None -> [] | Some f -> f v)
        in
        emit
          {
            ev_ts = Unix.gettimeofday ();
            ev_level = level;
            ev_name = name ^ ".end";
            ev_span = Some id;
            ev_parent = parent;
            ev_fields = fields;
          };
        v
    | exception e ->
        pop ();
        emit
          {
            ev_ts = Unix.gettimeofday ();
            ev_level = level;
            ev_name = name ^ ".end";
            ev_span = Some id;
            ev_parent = parent;
            ev_fields =
              [
                ("seconds", Float (Unix.gettimeofday () -. t0));
                ("ok", Bool false);
                ("error", String (Printexc.to_string e));
              ];
          };
        raise e
  end

(* ---------- sinks ---------- *)

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | String s -> s

let stderr_sink ~min_level =
  {
    s_min = min_level;
    s_emit =
      (fun ev ->
        let b = Buffer.create 96 in
        Buffer.add_string b
          (Printf.sprintf "[%s] %s" (level_to_string ev.ev_level) ev.ev_name);
        (match ev.ev_span with
        | Some id -> Buffer.add_string b (Printf.sprintf " span=%d" id)
        | None -> ());
        List.iter
          (fun (k, v) ->
            Buffer.add_string b
              (Printf.sprintf " %s=%s" k (value_to_string v)))
          ev.ev_fields;
        Buffer.add_char b '\n';
        output_string stderr (Buffer.contents b);
        flush stderr);
  }

let memory_sink ?(min_level = Debug) () =
  let captured = ref [] in
  let sink =
    { s_min = min_level; s_emit = (fun ev -> captured := ev :: !captured) }
  in
  (sink, fun () -> List.rev !captured)

(* ---------- JSONL trace sink ---------- *)

let trace_schema_version = 1

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_value = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
      (* JSON has no nan/inf literals; clamp to null. *)
      if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
  | String s -> Printf.sprintf "\"%s\"" (json_escape s)

let json_ev ev =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"ev\":\"%s\"" ev.ev_ts
       (level_to_string ev.ev_level)
       (json_escape ev.ev_name));
  (match ev.ev_span with
  | Some id -> Buffer.add_string b (Printf.sprintf ",\"span\":%d" id)
  | None -> ());
  (match ev.ev_parent with
  | Some id -> Buffer.add_string b (Printf.sprintf ",\"parent\":%d" id)
  | None -> ());
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v)))
    ev.ev_fields;
  Buffer.add_string b "}}";
  Buffer.contents b

let trace_header ~jobs =
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"rlibm-trace\",\"timestamp\":%.3f,\"host\":{\"hostname\":\"%s\",\"os\":\"%s\",\"ocaml\":\"%s\"},\"jobs\":%d}"
    trace_schema_version (Unix.gettimeofday ()) (json_escape hostname)
    (json_escape Sys.os_type)
    (json_escape Sys.ocaml_version)
    jobs

let trace_sink ?(min_level = Debug) ?(jobs = 1) path =
  match open_out path with
  | exception Sys_error detail -> Result.Error (Error.Store_io { path; detail })
  | oc ->
      output_string oc (trace_header ~jobs);
      output_char oc '\n';
      (* The emit mutex serializes writers; at_exit flushes whatever the
         process emitted, including when it exits via [exit code]. *)
      let closed = ref false in
      at_exit (fun () ->
          if not !closed then begin
            closed := true;
            try close_out oc with _ -> ()
          end);
      Ok
        {
          s_min = min_level;
          s_emit =
            (fun ev ->
              if not !closed then begin
                output_string oc (json_ev ev);
                output_char oc '\n';
                flush oc
              end);
        }

(* Default installation: warnings and errors reach stderr even before
   any executable configures --log-level, so library-level warnings
   (e.g. a bad RLIBM_JOBS value) are never silently dropped. *)
let () = set_sinks [ stderr_sink ~min_level:Warn ]
