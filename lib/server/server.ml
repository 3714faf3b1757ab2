open Datalog_storage
module Json = Datalog_engine.Json

type listen = Unix_path of string | Tcp of string * int
type config = { listen : listen; supervisor : Supervisor.config }

(* Signal flags: handlers only flip refs, the loop acts on them.  A
   second SIGINT must work even if the drain loop is stuck, so it exits
   from the handler itself. *)
let stop_flag = ref false
let sigint_count = ref 0

let install_signals () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_flag := true));
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         incr sigint_count;
         if !sigint_count >= 2 then exit 130 else stop_flag := true));
  (* a client vanishing mid-write must be an EPIPE result, not death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let bind_listener listen =
  match listen with
  | Unix_path path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (addr, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
    Unix.listen fd 64;
    fd

type state = {
  sup : Supervisor.t;
  log : string -> unit;
  listen_fd : Unix.file_descr;
  listen_path : string option;  (** unlinked on shutdown *)
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_session : int;
}

let close_session st (s : Session.t) =
  if Hashtbl.mem st.sessions s.Session.id then begin
    Hashtbl.remove st.sessions s.Session.id;
    Supervisor.forget_session st.sup s.Session.id;
    (try Unix.close s.Session.fd with Unix.Unix_error _ -> ())
  end

let send_reply st session_id reply =
  match Hashtbl.find_opt st.sessions session_id with
  | None -> ()  (* client went away; the work was still done *)
  | Some s -> Session.queue_output s (Protocol.render reply)

(* Write as much pending output as the socket accepts; partial writes
   and EAGAIN push the remainder back for the next writability wake. *)
let flush_session st (s : Session.t) =
  if Session.has_output s then begin
    let out = Session.take_output s in
    let buf = Bytes.of_string out in
    match Faults.send s.Session.fd buf 0 (Bytes.length buf) with
    | n ->
      if n < Bytes.length buf then
        Session.push_back_output s
          (Bytes.sub_string buf n (Bytes.length buf - n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Session.push_back_output s out
    | exception Unix.Unix_error _ -> close_session st s
  end

let dispatch_line st (s : Session.t) line =
  if String.trim line <> "" then begin
    let now = Unix.gettimeofday () in
    match Protocol.parse line with
    | Error { Protocol.err_id; err_message } ->
      Session.queue_output s
        (Protocol.render (Protocol.error ~id:err_id err_message))
    | Ok env -> (
      match env.Protocol.request with
      | Protocol.Ping | Protocol.Stats ->
        (* control requests bypass admission: observability must keep
           working exactly when the server is overloaded *)
        let reply, _ = Supervisor.handle st.sup ~now env in
        Session.queue_output s (Protocol.render reply)
      | _ -> (
        match Supervisor.submit st.sup ~session:s.Session.id ~now env with
        | Supervisor.Admitted -> ()
        | Supervisor.Overloaded retry ->
          Session.queue_output s
            (Protocol.render
               (Protocol.overloaded ~id:env.Protocol.req_id ~scope:"server"
                  ~retry_after_s:retry))
        | Supervisor.Session_capped ->
          Session.queue_output s
            (Protocol.render
               (Protocol.overloaded ~id:env.Protocol.req_id ~scope:"session"
                  ~retry_after_s:
                    (Supervisor.default_config.Supervisor.retry_after_s)))))
  end

let read_session st (s : Session.t) =
  let buf = Bytes.create 65536 in
  match Faults.recv s.Session.fd buf 0 (Bytes.length buf) with
  | 0 -> close_session st s
  | n ->
    let lines = Session.feed s (Bytes.sub_string buf 0 n) in
    List.iter (dispatch_line st s) lines
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_session st s

let accept_clients st =
  let rec go () =
    match Unix.accept st.listen_fd with
    | fd, addr ->
      Unix.set_nonblock fd;
      let id = st.next_session in
      st.next_session <- id + 1;
      let peer =
        match addr with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      in
      Hashtbl.replace st.sessions id (Session.create ~id ~peer fd);
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  go ()

(* Drain the whole admitted queue.  A shutdown request sets the stop
   flag but the remaining admitted requests still execute — they were
   accepted, so they are answered. *)
let process_queue st =
  let rec go () =
    match Supervisor.process_one st.sup ~now:(Unix.gettimeofday ()) with
    | None -> ()
    | Some (session_id, reply, ctl) ->
      send_reply st session_id reply;
      (match ctl with `Stop -> stop_flag := true | `Continue -> ());
      go ()
  in
  go ()

(* Poison sweep + flush: sessions that overflowed a buffer get an error
   and the boot; everyone else gets their pending output pushed. *)
let flush_all st =
  let doomed = ref [] in
  Hashtbl.iter
    (fun _ s ->
      (match s.Session.poisoned with
      | Some why ->
        Session.queue_output s
          (Protocol.render (Protocol.error ~id:Json.Null why));
        doomed := s :: !doomed
      | None -> ());
      flush_session st s)
    st.sessions;
  List.iter (close_session st) !doomed

let shutdown st =
  st.log "shutting down: draining queue";
  process_queue st;
  (* bounded flush: give clients a moment to read their last replies *)
  let give_up = Unix.gettimeofday () +. 5.0 in
  let rec drain_output () =
    flush_all st;
    let still = Hashtbl.fold (fun _ s acc -> acc || Session.has_output s)
        st.sessions false
    in
    if still && Unix.gettimeofday () < give_up then begin
      ignore (Unix.select [] [] [] 0.01);
      drain_output ()
    end
  in
  drain_output ();
  (match Supervisor.snapshot_now st.sup with
  | Ok () -> ()
  | Error msg -> st.log ("final snapshot failed: " ^ msg));
  Hashtbl.iter (fun _ s -> try Unix.close s.Session.fd with _ -> ())
    st.sessions;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (match st.listen_path with
  | Some path -> (try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  st.log "bye";
  0

let serve st =
  let rec loop () =
    if !stop_flag then shutdown st
    else begin
      let session_fds =
        Hashtbl.fold (fun _ s acc -> s.Session.fd :: acc) st.sessions []
      in
      let write_fds =
        Hashtbl.fold
          (fun _ s acc ->
            if Session.has_output s then s.Session.fd :: acc else acc)
          st.sessions []
      in
      (match
         Unix.select (st.listen_fd :: session_fds) write_fds [] 0.2
       with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _writable, _ ->
        if List.memq st.listen_fd readable then accept_clients st;
        Hashtbl.iter
          (fun _ s ->
            if List.memq s.Session.fd readable then read_session st s)
          st.sessions;
        process_queue st;
        flush_all st;
        Supervisor.maybe_snapshot st.sup ~now:(Unix.gettimeofday ()));
      loop ()
    end
  in
  loop ()

let run config program =
  stop_flag := false;
  sigint_count := 0;
  match Supervisor.start config.supervisor program with
  | Error _ as e -> e
  | Ok sup -> (
    match bind_listener config.listen with
    | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Supervisor.Startup_failed
           (Printf.sprintf "cannot listen: %s(%s): %s" fn arg
              (Unix.error_message e)))
    | listen_fd ->
      install_signals ();
      Unix.set_nonblock listen_fd;
      let st =
        { sup;
          log = config.supervisor.Supervisor.log;
          listen_fd;
          listen_path =
            (match config.listen with
            | Unix_path p -> Some p
            | Tcp _ -> None);
          sessions = Hashtbl.create 16;
          next_session = 1
        }
      in
      st.log "serving";
      Ok (serve st))
