(* In-memory spans recorded around the benchmark's own calls into each
   layer.  Off by default: an untraced run records nothing and [span]
   is a plain call. *)

type span = {
  id : int;
  parent : int;  (* -1 at top level *)
  name : string;  (* "<layer>.<call>" *)
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = Stats.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = Stats.now_ns () in
        current := parent;
        recorded := { id; parent; name; start_ns; stop_ns } :: !recorded)
      f
  end

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9
let spans () = List.rev !recorded

(* Per span name: (count, total seconds, self seconds), where self time
   is the span's duration minus the durations of its direct children
   (spans nest strictly: they are only recorded on the calling domain). *)
let fold () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = duration s in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare

let self_s name =
  match List.assoc_opt name (fold ()) with Some (_, _, s) -> s | None -> 0.0

(* One JSON object per span, in start order. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %Ld, \
             \"end_ns\": %Ld}\n"
            s.id s.parent s.name s.start_ns s.stop_ns)
        (spans ()))
