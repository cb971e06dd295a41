(** Driving a [daenerys serve] process from the benchmark: spawn it,
    talk to it over one non-blocking connection, stop it.

    Every process spawned here is registered and killed (then reaped)
    at exit, so an aborted run never leaves a daemon behind. *)

module J = Server.Json
module P = Server.Protocol

(* ------------------------------------------------------------------ *)
(* Child processes *)

let live : int list ref = ref []

let register pid = live := pid :: !live
let forget pid = live := List.filter (fun p -> p <> pid) !live

let rec waitpid_eintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_eintr pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(** Wait up to [timeout] seconds for [pid] to exit, then kill it. *)
let reap ?(timeout = 10.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_eintr pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  forget pid

(** Peak resident set ([VmHWM]) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          else None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* ------------------------------------------------------------------ *)
(* Daemon *)

type daemon = { pid : int; sock : string; log : string }

(** [bin/daenerys.exe] of the same build tree as this executable. *)
let daemon_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "daenerys.exe")

(** The daemon's per-client queue bound and global in-flight budget.
    The defaults (64 and 256) are sized for one editor per connection;
    the benchmark sends the stream of many editors over one connection,
    and a pause of the host (the generator then catches up on every
    request that fell due, at once) would otherwise meet a [busy]
    answer instead of a late one. Only the latency shows such a pause. *)
let admission_bound = 1_000_000

let spawn ?(env = []) ~sock ~cache_dir ~log () =
  let exe = daemon_exe () in
  let bound = string_of_int admission_bound in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close logfd;
        Unix.close devnull)
      (fun () ->
        Unix.create_process_env exe
          [| exe; "serve"; "-j"; "1"; "--socket"; sock; "--cache-dir"; cache_dir;
             "--queue"; bound; "--max-inflight"; bound |]
          (Array.append (Unix.environment ()) (Array.of_list env))
          devnull logfd logfd)
  in
  register pid;
  { pid; sock; log }

let log_tail d =
  match In_channel.with_open_text d.log In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

(* ------------------------------------------------------------------ *)
(* Connection *)

type conn = {
  fd : Unix.file_descr;
  wbuf : Buffer.t;
  mutable woff : int;
  mutable rbuf : string;
  chunk : Bytes.t;
}

exception Closed

(** Connect to a daemon that may still be starting: retry until the
    socket accepts, giving up when the daemon has exited or after
    [timeout] seconds. *)
let connect ?(timeout = 20.0) (d : daemon) =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () ->
        Unix.set_nonblock fd;
        { fd; wbuf = Buffer.create 65536; woff = 0; rbuf = ""; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            forget d.pid;
            failwith ("daemon exited during start-up:\n" ^ log_tail d));
        if Unix.gettimeofday () > deadline then failwith "daemon did not accept connections";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush_some c =
  let len = Buffer.length c.wbuf - c.woff in
  if len > 0 then begin
    (match Unix.write_substring c.fd (Buffer.contents c.wbuf) c.woff len with
    | n -> c.woff <- c.woff + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
    if c.woff = Buffer.length c.wbuf then begin
      Buffer.clear c.wbuf;
      c.woff <- 0
    end
  end

(** Queue one request line and write as much as the socket takes. *)
let send c line =
  Buffer.add_string c.wbuf line;
  flush_some c

(** Wait at most [timeout] seconds for input; return the complete lines
    received. *)
let recv_lines c timeout =
  let want_write = Buffer.length c.wbuf > c.woff in
  match Unix.select [ c.fd ] (if want_write then [ c.fd ] else []) [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | r, w, _ ->
      if w <> [] then flush_some c;
      if r = [] then []
      else
        let rec read acc =
          match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
          | 0 -> if acc = [] then raise Closed else acc
          | n -> read (Bytes.sub_string c.chunk 0 n :: acc)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> acc
        in
        let data = c.rbuf ^ String.concat "" (List.rev (read [])) in
        let parts = String.split_on_char '\n' data in
        let rec split acc = function
          | [ last ] ->
              c.rbuf <- last;
              List.rev acc
          | l :: rest -> split (l :: acc) rest
          | [] -> List.rev acc
        in
        split [] parts

(* ------------------------------------------------------------------ *)
(* Responses *)

type reply = {
  id : int;
  ok : bool;
  busy : bool;
  exit_code : int option;
  status : string option;
}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(** Decode the head of a response line. The [report] and [output]
    fields that follow [status] are not needed for the verdict check,
    so only the text before them is parsed. *)
let reply_of_line line =
  let head =
    match find_sub line ",\"report\":" with
    | Some i -> String.sub line 0 i ^ "}"
    | None -> line
  in
  match J.parse head with
  | Error _ -> None
  | Ok v ->
      Option.map
        (fun id ->
          {
            id;
            ok = J.bool_member "ok" v = Some true;
            busy = J.bool_member "busy" v = Some true;
            exit_code = J.int_member "exit" v;
            status = J.str_member "status" v;
          })
        (J.int_member "id" v)

(** Send one control request (stats, shutdown) when nothing else is
    outstanding and wait for its full response. *)
let call ?(timeout = 30.0) c (req : J.t) ~id =
  send c (P.line req);
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if Unix.gettimeofday () > deadline then failwith "daemon did not answer a control request";
    let hit =
      List.find_map
        (fun l ->
          match J.parse l with
          | Ok v when J.int_member "id" v = Some id -> Some v
          | _ -> None)
        (recv_lines c 0.05)
    in
    match hit with Some v -> v | None -> go ()
  in
  go ()

let stats c = call c (P.stats_request ~id:(J.Num (-1.0)) ()) ~id:(-1)

(** Shut the daemon down through the protocol and reap it. *)
let shutdown (d : daemon) c =
  (try ignore (call ~timeout:10.0 c (P.shutdown_request ~id:(J.Num (-2.0)) ()) ~id:(-2))
   with Closed | Failure _ | Unix.Unix_error _ -> ());
  close c;
  reap d.pid
