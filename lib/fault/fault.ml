(* Deterministic fault injection.  See fault.mli for the contract.

   The passthrough cost is one atomic load per call: [armed] is false
   until a plan is installed (explicitly or from RLIBM_FAULT_PLAN), and
   only then does a call take the mutex, bump the class counters and
   scan the rules. *)

type op = Open | Read | Write | Fsync | Rename | Mkdir
type sel = Any | Mut | Op of op
type action = Fail of Unix.error | Short of int | Torn of int | Abort
type rule = { r_sel : sel; r_nth : int; r_sticky : bool; r_action : action }
type plan = rule list

let abort_exit_code = 70

(* ---------- spec syntax ---------- *)

let sel_of_string = function
  | "any" -> Some Any
  | "mut" -> Some Mut
  | "open" -> Some (Op Open)
  | "read" -> Some (Op Read)
  | "write" -> Some (Op Write)
  | "fsync" -> Some (Op Fsync)
  | "rename" -> Some (Op Rename)
  | "mkdir" -> Some (Op Mkdir)
  | _ -> None

let sel_to_string = function
  | Any -> "any"
  | Mut -> "mut"
  | Op Open -> "open"
  | Op Read -> "read"
  | Op Write -> "write"
  | Op Fsync -> "fsync"
  | Op Rename -> "rename"
  | Op Mkdir -> "mkdir"

let action_of_string s =
  match String.split_on_char ':' s with
  | [ "eio" ] -> Some (Fail Unix.EIO)
  | [ "enospc" ] -> Some (Fail Unix.ENOSPC)
  | [ "eintr" ] -> Some (Fail Unix.EINTR)
  | [ "eagain" ] -> Some (Fail Unix.EAGAIN)
  | [ "abort" ] -> Some Abort
  | [ "short"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Some (Short n)
      | _ -> None)
  | [ "torn"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Some (Torn n)
      | _ -> None)
  | _ -> None

let action_to_string = function
  | Fail Unix.EIO -> "eio"
  | Fail Unix.ENOSPC -> "enospc"
  | Fail Unix.EINTR -> "eintr"
  | Fail Unix.EAGAIN -> "eagain"
  | Fail _ -> "eio" (* parse never produces other codes *)
  | Short n -> Printf.sprintf "short:%d" n
  | Torn n -> Printf.sprintf "torn:%d" n
  | Abort -> "abort"

let parse_rule s =
  let bad () =
    Error
      (Printf.sprintf
         "bad fault rule %S (expected SEL@N[+]=ACTION, e.g. write@1+=enospc)"
         s)
  in
  match String.index_opt s '@' with
  | None -> bad ()
  | Some at -> (
      match String.index_opt s '=' with
      | None -> bad ()
      | Some eq when eq < at -> bad ()
      | Some eq -> (
          let sel = String.sub s 0 at in
          let nth = String.sub s (at + 1) (eq - at - 1) in
          let action = String.sub s (eq + 1) (String.length s - eq - 1) in
          let nth, sticky =
            let l = String.length nth in
            if l > 0 && nth.[l - 1] = '+' then (String.sub nth 0 (l - 1), true)
            else (nth, false)
          in
          match (sel_of_string sel, int_of_string_opt nth, action_of_string action)
          with
          | Some r_sel, Some n, Some r_action when n >= 1 ->
              Ok { r_sel; r_nth = n; r_sticky = sticky; r_action }
          | _ -> bad ()))

let parse s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun r -> String.trim r <> "")
  |> List.fold_left
       (fun acc r ->
         match acc with
         | Error _ as e -> e
         | Ok rules -> (
             match parse_rule (String.trim r) with
             | Ok rule -> Ok (rule :: rules)
             | Error _ as e -> e))
       (Ok [])
  |> Result.map List.rev

let to_spec plan =
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf "%s@%d%s=%s" (sel_to_string r.r_sel) r.r_nth
           (if r.r_sticky then "+" else "")
           (action_to_string r.r_action))
       plan)

(* ---------- injector state ---------- *)

type state = {
  st_plan : plan;
  mutable st_any : int;
  mutable st_mut : int;
  st_ops : int array; (* indexed by op tag *)
}

let op_index = function
  | Open -> 0
  | Read -> 1
  | Write -> 2
  | Fsync -> 3
  | Rename -> 4
  | Mkdir -> 5

(* [armed] is the fast-path gate; [state]/[env_checked] mutate under
   [lock] only. *)
let armed = Atomic.make false
let lock = Mutex.create ()
let state : state option ref = ref None
let env_checked = ref false

let fresh plan =
  { st_plan = plan; st_any = 0; st_mut = 0; st_ops = Array.make 6 0 }

let install plan =
  Mutex.protect lock (fun () ->
      env_checked := true;
      state := (match plan with None -> None | Some p -> Some (fresh p));
      Atomic.set armed (!state <> None))

let arm plan = install (Some plan)

let with_plan plan f =
  let saved_state, saved_checked =
    Mutex.protect lock (fun () -> (!state, !env_checked))
  in
  arm plan;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect lock (fun () ->
          state := saved_state;
          env_checked := saved_checked;
          Atomic.set armed (!state <> None)))
    f

let mut_sites () =
  Mutex.protect lock (fun () ->
      match !state with None -> 0 | Some st -> st.st_mut)

(* The environment plan is read lazily at the first Fs call, so child
   processes (kill-point sweeps, the check.sh smoke) need no wiring
   beyond RLIBM_FAULT_PLAN=...; an explicit plan always wins. *)
let check_env () =
  if not !env_checked then begin
    env_checked := true;
    match Sys.getenv_opt "RLIBM_FAULT_PLAN" with
    | Some s when String.trim s <> "" -> (
        match parse s with
        | Ok plan ->
            state := Some (fresh plan);
            Atomic.set armed true
        | Error msg ->
            (* A misspelled plan must not silently run fault-free. *)
            Printf.eprintf "rlibm: RLIBM_FAULT_PLAN: %s\n%!" msg;
            exit 2)
    | _ -> ()
  end

let matches st rule ~op ~mutating =
  let counter =
    match rule.r_sel with
    | Any -> st.st_any
    | Mut -> st.st_mut
    | Op o -> st.st_ops.(op_index o)
  in
  (match rule.r_sel with
  | Any -> true
  | Mut -> mutating
  | Op o -> o = op)
  && (counter = rule.r_nth || (rule.r_sticky && counter > rule.r_nth))

(* Classify one call: bump the counters and return the first firing
   rule's action, if any. *)
let consult ~op ~mutating =
  if not (Atomic.get armed) && !env_checked then None
  else
    Mutex.protect lock (fun () ->
        check_env ();
        match !state with
        | None -> None
        | Some st ->
            st.st_any <- st.st_any + 1;
            if mutating then st.st_mut <- st.st_mut + 1;
            st.st_ops.(op_index op) <- st.st_ops.(op_index op) + 1;
            List.find_opt (matches st ~op ~mutating) st.st_plan
            |> Option.map (fun r -> r.r_action))

let op_name = function
  | Open -> "open"
  | Read -> "read"
  | Write -> "write"
  | Fsync -> "fsync"
  | Rename -> "rename"
  | Mkdir -> "mkdir"

let abort ~op path =
  Diag.event ~level:Diag.Warn "fault.abort" (fun () ->
      [ ("op", Diag.String (op_name op)); ("path", Diag.String path) ]);
  Unix._exit abort_exit_code

let fail ~op path e = raise (Unix.Unix_error (e, "fault:" ^ op_name op, path))

(* Injection outcome for a non-read/write op: Short/Torn degrade to EIO
   (they have no meaning without a byte count to cut). *)
let simple ~op path = function
  | None -> ()
  | Some (Fail e) -> fail ~op path e
  | Some (Short _ | Torn _) -> fail ~op path Unix.EIO
  | Some Abort -> abort ~op path

module Fs = struct
  let open_read path =
    simple ~op:Open path (consult ~op:Open ~mutating:false);
    Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

  let open_excl path perm =
    simple ~op:Open path (consult ~op:Open ~mutating:true);
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      perm

  let read fd buf off len =
    match consult ~op:Read ~mutating:false with
    | None -> Unix.read fd buf off len
    | Some (Fail e) -> fail ~op:Read "" e
    | Some (Short n) -> Unix.read fd buf off (min len (max 1 n))
    | Some (Torn _) -> fail ~op:Read "" Unix.EIO
    | Some Abort -> abort ~op:Read ""

  let write fd buf off len =
    match consult ~op:Write ~mutating:true with
    | None -> Unix.write fd buf off len
    | Some (Fail e) -> fail ~op:Write "" e
    | Some (Short n) -> Unix.write fd buf off (min len (max 1 n))
    | Some (Torn n) ->
        let n = min n len in
        let rec put off remaining =
          if remaining > 0 then begin
            match Unix.write fd buf off remaining with
            | written -> put (off + written) (remaining - written)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off remaining
          end
        in
        put off n;
        fail ~op:Write "" Unix.EIO
    | Some Abort -> abort ~op:Write ""

  let fsync fd =
    simple ~op:Fsync "" (consult ~op:Fsync ~mutating:true);
    Unix.fsync fd

  let rename src dst =
    simple ~op:Rename src (consult ~op:Rename ~mutating:true);
    Unix.rename src dst

  let mkdir path perm =
    simple ~op:Mkdir path (consult ~op:Mkdir ~mutating:true);
    Unix.mkdir path perm

  let close fd = Unix.close fd
end
