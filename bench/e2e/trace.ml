(* Spans recorded by the benchmark around its calls into each layer. They
   stay in memory until the run ends and are then written as JSON lines,
   one span per line. *)

type clock = Host | Virtual

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  request : int;  (** spans of one request or one query share this *)
  name : string;
  clock : clock;
  start : float;  (** seconds; host spans from the run start *)
  stop : float;
  attrs : (string * Json.t) list;
}

type t = { enabled : bool; t0 : float; mutable spans : span list; mutable next : int }

(** A disabled tracer runs every span's body and records nothing. *)
let create ~enabled = { enabled; t0 = Qcomp_support.Timing.now (); spans = []; next = 1 }

let enabled t = t.enabled
let duration s = s.stop -. s.start

let add t ?(parent = 0) ~request ~clock ~start ~stop ?(attrs = []) name =
  if not t.enabled then 0
  else
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; request; name; clock; start; stop; attrs } :: t.spans;
  id

(** Run [f] as a host-clock span; [f] gets the span's id (for children)
    and returns its result plus the span's attributes. *)
let host t ?parent ~request name f =
  if not t.enabled then fst (f 0)
  else
  let id = t.next in
  t.next <- id + 1;
  let start = Qcomp_support.Timing.now () -. t.t0 in
  let r, attrs = f id in
  let stop = Qcomp_support.Timing.now () -. t.t0 in
  t.spans <-
    { id; parent = Option.value ~default:0 parent; request; name; clock = Host; start; stop; attrs }
    :: t.spans;
  r

let spans t = List.rev t.spans

let to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("request", Json.Int s.request);
      ("name", Json.Str s.name);
      ("clock", Json.Str (match s.clock with Host -> "host" | Virtual -> "virtual"));
      ("start", Json.Num s.start);
      ("end", Json.Num s.stop);
      ("attrs", Json.Obj s.attrs);
    ]

let write t file =
  let oc = open_out file in
  List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) (spans t);
  close_out oc

(** Self time per span name: each span's duration minus the part its
    children cover, summed by name, with the span count and total. *)
let self_times t =
  let spans = spans t in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let key = (s.name, s.clock) in
      (match Hashtbl.find_opt by_name key with
      | None -> order := key :: !order; Hashtbl.replace by_name key (1, duration s, self)
      | Some (n, total, selft) -> Hashtbl.replace by_name key (n + 1, total +. duration s, selft +. self)))
    spans;
  List.rev_map (fun key -> (key, Hashtbl.find by_name key)) !order

let attr_float s k =
  match List.assoc_opt k s.attrs with
  | Some (Json.Num x) -> x
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let attr_str s k = match List.assoc_opt k s.attrs with Some (Json.Str v) -> v | _ -> ""

(** Spans named [name] on [clock] (default: either) whose attribute [key]
    (when given) equals [value]. *)
let select t ?clock ?key ?value name =
  List.filter
    (fun s ->
      s.name = name
      && (match clock with Some c -> s.clock = c | None -> true)
      && match (key, value) with Some k, Some v -> attr_str s k = v | _ -> true)
    (spans t)
