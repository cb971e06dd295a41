(** In-memory spans for the traced run.

    A span records one call into a layer, made from the benchmark's own
    code: its name, start and end (seconds on {!Clock}), the
    span that caused it and the request it belongs to. Spans are kept
    in memory and written out once, when the benchmark ends, so writing
    them costs nothing inside a timed region. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a request's root span *)
  req : int;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

(** Run [f] inside a span; returns [f]'s result and the span's id (for
    children, whose spans are recorded after their parent's id is
    known). *)
let record t ?(parent = -1) ~req name f =
  let id = t.next in
  t.next <- id + 1;
  let start = Clock.now () in
  let r = f id in
  let stop = Clock.now () in
  t.spans <- { id; name; start; stop; parent; req } :: t.spans;
  r

(** Add a span measured by the caller (when its name depends on the
    call's result). *)
let add t ?(parent = -1) ~req name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; start; stop; parent; req } :: t.spans

(** The span recorded last. *)
let last t = List.hd t.spans

let duration s = s.stop -. s.start

(** All spans with [name], in recording order. *)
let named t name = List.rev (List.filter (fun s -> String.equal s.name name) t.spans)

let to_json t : Server.Json.t =
  let open Server.Json in
  let num f = Raw (Printf.sprintf "%.9f" f) in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Num (float_of_int s.id));
             ("name", Str s.name);
             ("start", num s.start);
             ("end", num s.stop);
             ("parent", Num (float_of_int s.parent));
             ("req", Num (float_of_int s.req));
           ])
       t.spans)
