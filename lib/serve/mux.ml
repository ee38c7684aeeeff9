(* The one transport. A readiness-driven event loop owns every socket —
   listeners, client connections and, in router mode, the backend
   connections — all non-blocking; received bytes go through
   Proto.Incremental and each frame is answered by one of two handlers:
   serving (admin frames inline, solver-bound frames through a bounded
   admission queue onto the server's pool) or routing (relay to a
   backend shard). Pool replies come back through a completion queue +
   wake pipe, and every client connection writes its replies in arrival
   order (pipelining-safe). The loop never blocks on a peer: a slow
   client only fills its own output buffer. Stdio runs the same frame
   decoding and admission decision in a sequential loop. *)

type admission = Admitted | Shed_queue_full | Shed_pressure | Shed_deadline

type config = {
  max_pending : int;
  max_connections : int;
}

let default_config =
  {
    max_pending = 64;
    (* [Unix.select] caps descriptor values at FD_SETSIZE (1024 on
       Linux); 1008 sockets leave room for stdio, listeners, the wake
       pipe and a few log files *)
    max_connections = 1008;
  }

(* One reply to come, in arrival order on its client connection. *)
type slot = Proto.response option ref

(* Framing and output state of one non-blocking socket, client or
   backend. *)
type endpoint = {
  fd : Unix.file_descr;
  parser : Proto.Incremental.t;
  out : Buffer.t;
  mutable out_off : int;
}

(* Per-client state. [slots] keeps one cell per frame received, in
   arrival order; a response may be computed out of order (inline sheds
   finish before pooled solves) but is only serialized once every
   earlier slot has been written, so pipelined clients read replies in
   request order. *)
type conn = {
  ep : endpoint;
  slots : slot Queue.t;
  mutable eof : bool;  (* peer closed its write side; drain then close *)
  mutable closed : bool;
  held : (string, work Queue.t) Hashtbl.t;
      (* session ids with a frame queued or running on this connection;
         later frames for the id wait here, in arrival order *)
  links : link option array;
      (* router mode: this client's backend sockets, one per shard,
         dialed on first use *)
}

(* One solver-bound frame; [wenq_us] dates its admission so dispatch can
   charge queue time against the request's own deadline. *)
and work = {
  wconn : conn;
  wslot : slot;
  wincoming : Proto.incoming;
  mutable wenq_us : float;
}

(* A client's connection to one backend shard. Replies come back in the
   order frames were sent, so [waiting] pairs them with client slots. *)
and link = {
  lep : endpoint;
  shard : int;
  owner : conn;
  waiting : slot Queue.t;
  mutable connecting : bool;  (* TCP connect still in flight *)
}

type handler = Serve of Server.t | Route of Router.t

type metrics = {
  c_accepted : Obs.Counter.t;
  c_closed : Obs.Counter.t;
  c_conn_rejected : Obs.Counter.t;
  c_wakeups : Obs.Counter.t;
  adm_admitted : Obs.Labeled.cell;
  adm_shed_queue_full : Obs.Labeled.cell;
  adm_shed_pressure : Obs.Labeled.cell;
  adm_shed_deadline : Obs.Labeled.cell;
  g_connections : Obs.Gauge.t;
  g_queue_depth : Obs.Gauge.t;
  g_queue_peak : Obs.Gauge.t;
  h_queue_wait_us : Obs.Histogram.t;
}

type t = {
  handler : handler;
  config : config;
  mutable listeners : (Unix.file_descr * string option) list;
      (* fd, unix path to unlink on exit *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  link_fds : (Unix.file_descr, link) Hashtbl.t;
  pending : work Queue.t;
  mutable inflight : int;
  max_inflight : int;  (* pool workers available beyond the loop's domain *)
  completed : (work * Proto.response) Queue.t;
  completed_mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  m : metrics;
}

(* Metrics are created per-mux (not at module load) so processes that
   never start the loop — plain [schedtool metrics], stdio serving — do
   not grow serve.mux.* series in their expositions. *)
let make_metrics () =
  let admission = Obs.Labeled.family "serve.mux.admission" ~label:"outcome" in
  {
    c_accepted = Obs.Counter.make "serve.mux.accepted";
    c_closed = Obs.Counter.make "serve.mux.closed";
    c_conn_rejected = Obs.Counter.make "serve.mux.conn_rejected";
    c_wakeups = Obs.Counter.make "serve.mux.wakeups";
    adm_admitted = Obs.Labeled.cell admission "admitted";
    adm_shed_queue_full = Obs.Labeled.cell admission "shed_queue_full";
    adm_shed_pressure = Obs.Labeled.cell admission "shed_pressure";
    adm_shed_deadline = Obs.Labeled.cell admission "shed_deadline";
    g_connections = Obs.Gauge.make "serve.mux.connections";
    g_queue_depth = Obs.Gauge.make "serve.mux.queue_depth";
    g_queue_peak = Obs.Gauge.make "serve.mux.queue_peak";
    h_queue_wait_us = Obs.Histogram.make "serve.mux.queue_wait_us";
  }

let make ?(config = default_config) handler =
  if config.max_pending < 1 then
    invalid_arg "Mux.create: max_pending must be >= 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    handler;
    config;
    listeners = [];
    conns = Hashtbl.create 64;
    link_fds = Hashtbl.create 16;
    pending = Queue.create ();
    inflight = 0;
    max_inflight =
      (match handler with
      | Serve server -> max 0 (Parallel.Pool.size (Server.pool server) - 1)
      | Route _ -> 0);
    completed = Queue.create ();
    completed_mutex = Mutex.create ();
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    m = make_metrics ();
  }

let create ?config server =
  let t = make ?config (Serve server) in
  (* admission-queue fill is this transport's saturation signal; the
     health lattice in turn throttles admission (see [admission]) *)
  Obs.Health.register_meter "mux.queue" (fun () ->
      Obs.Gauge.value t.m.g_queue_depth /. float_of_int t.config.max_pending);
  Obs.Slo.register ~name:"mux-admission" ~target:0.99
    (Obs.Slo.Availability
       { family = "serve.mux.admission"; good_values = [ "admitted" ] });
  t

let create_router router = make (Route router)

let listen_backlog = 128

let add_tcp t ~host ~port =
  let addr =
    match Unix.getaddrinfo host (string_of_int port)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "getaddrinfo", host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd listen_backlog;
  Unix.set_nonblock fd;
  t.listeners <- (fd, None) :: t.listeners;
  Unix.getsockname fd

let add_unix t ~path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd listen_backlog;
  Unix.set_nonblock fd;
  t.listeners <- (fd, Some path) :: t.listeners

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let stop t =
  Atomic.set t.stopping true;
  wake t

(* --- admission (shared with stdio) -------------------------------------- *)

(* The one shedding decision, and the only reader of the health lattice
   for it: the queue bound is full capacity when [Ok], half when
   [Degraded], zero when [Unhealthy] (every solver-bound frame is shed
   until the meters recover). *)
let admission ~max_pending ~depth =
  let cap =
    match Obs.Health.status () with
    | Obs.Health.Ok -> max_pending
    | Obs.Health.Degraded _ -> max 1 (max_pending / 2)
    | Obs.Health.Unhealthy _ -> 0
  in
  if depth < cap then Admitted
  else if depth >= max_pending then Shed_queue_full
  else Shed_pressure

(* Shedding strips the solver budget instead of refusing service: the
   request is answered at once through the same dispatch path with
   deadline 0, which yields the near-linear fast path and a [degraded]
   reply — or the cached result when one exists, which costs nothing
   and is better than degrading. *)
let shed_response server (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req ->
      Server.handle_incoming server
        (Proto.Solve { req with Proto.deadline_ms = Some 0.0 })
  | Proto.Session ({ op = Proto.S_resolve _; _ } as sreq) ->
      Server.handle_incoming server
        (Proto.Session
           { sreq with Proto.op = Proto.S_resolve { deadline_ms = Some 0.0 } })
  | Proto.Session _ as s ->
      (* session mutations are O(delta) bookkeeping — cheap enough to
         run rather than fail the lifecycle under load *)
      Server.handle_incoming server s
  | Proto.Profile _ ->
      Proto.Error "overloaded: profile frame shed (retry when healthy)"
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _ ->
      (* admin frames are never queued, so never shed *)
      assert false

let is_admin (incoming : Proto.incoming) =
  match incoming with
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _ -> true
  | Proto.Solve _ | Proto.Session _ | Proto.Profile _ -> false

(* --- stdio ---------------------------------------------------------------- *)

(* The sequential loop answers every frame before reading the next, so
   its queue is always empty: admission sheds only an [Unhealthy]
   process. *)
let answer_now server incoming =
  if is_admin incoming then Server.handle_incoming server incoming
  else
    match admission ~max_pending:default_config.max_pending ~depth:0 with
    | Admitted -> Server.handle_incoming server incoming
    | Shed_queue_full | Shed_pressure | Shed_deadline ->
        shed_response server incoming

let serve_channels server ic oc =
  let parser = Proto.Incremental.create () in
  let chunk = Bytes.create 65536 in
  let respond response =
    output_string oc (Proto.response_to_string response);
    flush oc
  in
  let rec answer_frames () =
    match Proto.Incremental.next_frame parser with
    | None -> ()
    | Some frame ->
        respond
          (match Proto.incoming_of_frame frame with
          | Ok incoming -> answer_now server incoming
          | Error msg -> Server.protocol_error msg);
        answer_frames ()
  in
  let rec loop () =
    (* about to park in a blocking read: waiting, not wedged *)
    Obs.Health.waiting ();
    match input ic chunk 0 (Bytes.length chunk) with
    | 0 ->
        Proto.Incremental.finish parser;
        answer_frames ();
        if Proto.Incremental.in_frame parser then
          respond (Server.protocol_error Proto.Incremental.truncated_error)
    | n ->
        Proto.Incremental.feed parser (Bytes.sub_string chunk 0 n);
        answer_frames ();
        loop ()
  in
  loop ()

(* --- output path -------------------------------------------------------- *)

(* Opportunistic non-blocking write of whatever is buffered; leftovers
   keep the fd in the select write set. [Error] when the peer is gone. *)
let flush_out ep =
  match
    while ep.out_off < Buffer.length ep.out do
      let chunk = min 65536 (Buffer.length ep.out - ep.out_off) in
      let s = Buffer.sub ep.out ep.out_off chunk in
      ep.out_off <- ep.out_off + Unix.write_substring ep.fd s 0 chunk
    done
  with
  | () ->
      Buffer.clear ep.out;
      ep.out_off <- 0;
      Ok ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error err

let has_output ep = Buffer.length ep.out > ep.out_off

let endpoint fd =
  {
    fd;
    parser = Proto.Incremental.create ();
    out = Buffer.create 256;
    out_off = 0;
  }

let close_link t link =
  Hashtbl.remove t.link_fds link.lep.fd;
  link.owner.links.(link.shard) <- None;
  try Unix.close link.lep.fd with Unix.Unix_error _ -> ()

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove t.conns conn.ep.fd;
    Array.iter (Option.iter (close_link t)) conn.links;
    Obs.Counter.incr t.m.c_closed;
    Obs.Gauge.set t.m.g_connections (float_of_int (Hashtbl.length t.conns));
    try Unix.close conn.ep.fd with Unix.Unix_error _ -> ()
  end

let try_write t conn =
  if not conn.closed then
    match flush_out conn.ep with
    | Error _ -> close_conn t conn
    | Ok () ->
        (* a drained peer is done once every reply is out *)
        if conn.eof && Queue.is_empty conn.slots && not (has_output conn.ep)
        then close_conn t conn

(* Serialize every response that is ready *in order*: stop at the first
   slot still pending so pipelined replies never overtake each other. *)
let pump t conn =
  let advanced = ref false in
  let rec drain () =
    match Queue.peek_opt conn.slots with
    | Some { contents = Some response } ->
        ignore (Queue.pop conn.slots);
        Buffer.add_string conn.ep.out (Proto.response_to_string response);
        advanced := true;
        drain ()
    | Some { contents = None } | None -> ()
  in
  drain ();
  if !advanced then try_write t conn

let answer t conn response =
  Queue.push (ref (Some response)) conn.slots;
  pump t conn

(* A frame that failed to parse: a served one counts in the request
   metrics, a routed one never reached a server. *)
let frame_error t msg =
  match t.handler with
  | Serve _ -> Server.protocol_error msg
  | Route _ -> Proto.Error msg

(* --- serving: admission + dispatch ------------------------------------- *)

let set_queue_depth t =
  let d = float_of_int (Queue.length t.pending) in
  Obs.Gauge.set t.m.g_queue_depth d;
  Obs.Gauge.set_max t.m.g_queue_peak d

let record_admission t outcome =
  Obs.Labeled.incr
    (match outcome with
    | Admitted -> t.m.adm_admitted
    | Shed_queue_full -> t.m.adm_shed_queue_full
    | Shed_pressure -> t.m.adm_shed_pressure
    | Shed_deadline -> t.m.adm_shed_deadline)

(* A frame's reply is ready: fill its slot, hand its session id's turn
   to the next frame waiting for it, and write what is in order. *)
let rec complete t server work response =
  work.wslot := Some response;
  if not work.wconn.closed then begin
    (match work.wincoming with
    | Proto.Session { sid; _ } -> next_for_sid t server work.wconn sid
    | _ -> ());
    pump t work.wconn
  end

and next_for_sid t server conn sid =
  match Hashtbl.find_opt conn.held sid with
  | None -> ()
  | Some waiting -> (
      match Queue.take_opt waiting with
      | None -> Hashtbl.remove conn.held sid
      | Some work -> admit t server work)

and admit t server work =
  let outcome =
    admission ~max_pending:t.config.max_pending ~depth:(Queue.length t.pending)
  in
  record_admission t outcome;
  match outcome with
  | Admitted ->
      work.wenq_us <- Obs.Sink.now_us ();
      Queue.push work t.pending;
      set_queue_depth t;
      dispatch_pending t server
  | Shed_queue_full | Shed_pressure | Shed_deadline ->
      complete t server work (shed_response server work.wincoming)

and dispatch_pending t server =
  let budget () = t.max_inflight = 0 || t.inflight < t.max_inflight in
  while (not (Queue.is_empty t.pending)) && budget () do
    let work = Queue.pop t.pending in
    set_queue_depth t;
    if not work.wconn.closed then dispatch t server work
  done

(* Run one request taken off the queue. On a multi-domain pool the work
   goes to a worker and the reply returns through the completion queue;
   a single-domain pool would run the task inline on [submit] anyway, so
   skip the queue and fill the slot directly. *)
and dispatch t server work =
  let now = Obs.Sink.now_us () in
  Obs.Histogram.observe t.m.h_queue_wait_us (now -. work.wenq_us);
  (* deadline-aware: budget spent waiting in the admission queue is
     subtracted from the request's own deadline; a request that
     out-waited its deadline is shed rather than solved late *)
  let incoming =
    match work.wincoming with
    | Proto.Solve ({ deadline_ms = Some d; _ } as req) ->
        let remaining = d -. ((now -. work.wenq_us) /. 1000.) in
        if remaining <= 0.0 then None
        else Some (Proto.Solve { req with Proto.deadline_ms = Some remaining })
    | other -> Some other
  in
  match incoming with
  | None ->
      record_admission t Shed_deadline;
      complete t server work (shed_response server work.wincoming)
  | Some incoming ->
      if t.max_inflight = 0 then
        complete t server work (Server.handle_incoming server incoming)
      else begin
        t.inflight <- t.inflight + 1;
        Parallel.Pool.submit (Server.pool server) (fun () ->
            let response =
              try Server.handle_incoming server incoming
              with exn ->
                Proto.Error
                  (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
            in
            Mutex.lock t.completed_mutex;
            Queue.push (work, response) t.completed;
            Mutex.unlock t.completed_mutex;
            wake t)
      end

let drain_completed t server =
  Mutex.lock t.completed_mutex;
  let batch = Queue.create () in
  Queue.transfer t.completed batch;
  Mutex.unlock t.completed_mutex;
  Queue.iter
    (fun (work, response) ->
      t.inflight <- t.inflight - 1;
      Obs.Counter.incr t.m.c_wakeups;
      complete t server work response)
    batch

(* Admin frames answer inline (they read process-wide registries and
   cost microseconds); solver-bound frames pass admission — except a
   session frame whose id already has a frame queued or running on this
   connection, which waits its turn so a session's ops apply in the
   order the client sent them. *)
let serve_frame t server conn incoming =
  if is_admin incoming then
    answer t conn (Server.handle_incoming server incoming)
  else begin
    let slot = ref None in
    Queue.push slot conn.slots;
    let work =
      { wconn = conn; wslot = slot; wincoming = incoming; wenq_us = 0.0 }
    in
    match incoming with
    | Proto.Session { sid; _ } -> (
        match Hashtbl.find_opt conn.held sid with
        | Some waiting -> Queue.push work waiting
        | None ->
            Hashtbl.replace conn.held sid (Queue.create ());
            admit t server work)
    | _ -> admit t server work
  end

(* --- routing ------------------------------------------------------------- *)

(* Every frame still waiting on a failed backend connection gets an
   error reply; the connection is dropped and the next frame re-dials. *)
let fail_link t router link msg =
  close_link t link;
  Queue.iter
    (fun slot ->
      Router.backend_error router;
      slot := Some (Proto.Error msg))
    link.waiting;
  Queue.clear link.waiting;
  pump t link.owner

let backend_failure router shard what =
  Printf.sprintf "backend %s: %s" (Router.backend router shard) what

let link_error router link err =
  backend_failure router link.shard (Unix.error_message err)

let flush_link t router link =
  match flush_out link.lep with
  | Ok () -> ()
  | Error err -> fail_link t router link (link_error router link err)

(* A Unix-domain connect completes or fails at once; a TCP connect may
   take a round trip, so it is left in flight and settles on the loop
   when the socket turns writable. Returns the socket and whether it is
   still connecting. *)
let connect_nonblocking domain addr =
  match Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) -> Error err
  | fd -> (
      match
        if domain = Unix.PF_INET then begin
          Unix.set_nonblock fd;
          Unix.setsockopt fd Unix.TCP_NODELAY true
        end;
        Unix.connect fd addr
      with
      | () ->
          Unix.set_nonblock fd;
          Ok (fd, false)
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> Ok (fd, true)
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error err)

let dial t router conn shard =
  match conn.links.(shard) with
  | Some link -> Ok link
  | None -> (
      if Hashtbl.length t.conns + Hashtbl.length t.link_fds
         >= t.config.max_connections
      then Error (backend_failure router shard "router connection cap")
      else
        match Scrape.resolve (Router.backend router shard) with
        | Error _ as e -> e
        | Ok (domain, addr) -> (
            match connect_nonblocking domain addr with
            | Error err ->
                Error (backend_failure router shard (Unix.error_message err))
            | Ok (fd, connecting) ->
                let link =
                  {
                    lep = endpoint fd;
                    shard;
                    owner = conn;
                    waiting = Queue.create ();
                    connecting;
                  }
                in
                conn.links.(shard) <- Some link;
                Hashtbl.replace t.link_fds fd link;
                Ok link))

(* Forward the frame verbatim to its shard over this client's own
   backend connection, so replies never interleave across clients. *)
let route_frame t router conn incoming frame =
  let slot = ref None in
  Queue.push slot conn.slots;
  match dial t router conn (Router.shard_of_incoming router incoming) with
  | Error msg ->
      Router.backend_error router;
      slot := Some (Proto.Error msg);
      pump t conn
  | Ok link ->
      Queue.push slot link.waiting;
      Buffer.add_string link.lep.out (Proto.frame_to_string frame);
      if not link.connecting then flush_link t router link

let read_chunk = Bytes.create 65536

let link_readable t router link =
  match Unix.read link.lep.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
      fail_link t router link
        (backend_failure router link.shard "closed the connection")
  | n ->
      Proto.Incremental.feed link.lep.parser (Bytes.sub_string read_chunk 0 n);
      let rec relay () =
        match Proto.Incremental.next_frame link.lep.parser with
        | None -> ()
        | Some frame ->
            (match Queue.take_opt link.waiting with
            | None -> () (* a reply nothing asked for *)
            | Some slot ->
                slot :=
                  Some
                    (match Proto.response_of_frame frame with
                    | Ok response ->
                        Router.forwarded router link.shard;
                        response
                    | Error msg ->
                        Router.backend_error router;
                        Proto.Error (backend_failure router link.shard msg)));
            relay ()
      in
      relay ();
      pump t link.owner
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (err, _, _) ->
      fail_link t router link (link_error router link err)

let link_writable t router link =
  if link.connecting then
    match Unix.getsockopt_error link.lep.fd with
    | Some err -> fail_link t router link (link_error router link err)
    | None ->
        link.connecting <- false;
        flush_link t router link
  else flush_link t router link

(* --- input path --------------------------------------------------------- *)

let on_frame t conn frame =
  match Proto.incoming_of_frame frame with
  | Error msg -> answer t conn (frame_error t msg)
  | Ok incoming -> (
      match t.handler with
      | Serve server -> serve_frame t server conn incoming
      | Route router -> route_frame t router conn incoming frame)

let process_frames t conn =
  let rec loop () =
    if not conn.closed then
      match Proto.Incremental.next_frame conn.ep.parser with
      | None -> ()
      | Some frame ->
          on_frame t conn frame;
          loop ()
  in
  loop ()

let handle_readable t conn =
  if not conn.closed then begin
    match Unix.read conn.ep.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 ->
        (* peer finished sending: flush the tail, answer any pipelined
           frames already buffered, then fail a frame cut mid-body *)
        conn.eof <- true;
        Proto.Incremental.finish conn.ep.parser;
        process_frames t conn;
        if Proto.Incremental.in_frame conn.ep.parser then
          answer t conn (frame_error t Proto.Incremental.truncated_error);
        try_write t conn
    | n ->
        Proto.Incremental.feed conn.ep.parser (Bytes.sub_string read_chunk 0 n);
        process_frames t conn
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t conn
  end

let accept_ready t lfd =
  let rec loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _addr ->
        if Hashtbl.length t.conns + Hashtbl.length t.link_fds
           >= t.config.max_connections
        then begin
          Obs.Counter.incr t.m.c_conn_rejected;
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          Unix.set_nonblock fd;
          (match Unix.getsockname fd with
          | Unix.ADDR_INET _ -> (
              (* pipelined frames are small; Nagle only adds latency *)
              try Unix.setsockopt fd Unix.TCP_NODELAY true
              with Unix.Unix_error _ -> ())
          | Unix.ADDR_UNIX _ -> ()
          | exception Unix.Unix_error _ -> ());
          let conn =
            {
              ep = endpoint fd;
              slots = Queue.create ();
              eof = false;
              closed = false;
              held = Hashtbl.create 4;
              links =
                Array.make
                  (match t.handler with
                  | Route router -> Router.backend_count router
                  | Serve _ -> 0)
                  None;
            }
          in
          Hashtbl.replace t.conns fd conn;
          Obs.Counter.incr t.m.c_accepted;
          Obs.Gauge.set t.m.g_connections
            (float_of_int (Hashtbl.length t.conns));
          loop ()
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EBADF), _, _) -> ()
  in
  loop ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* --- the loop ----------------------------------------------------------- *)

let run t =
  if t.listeners = [] then invalid_arg "Mux.run: no listeners";
  let cleanup () =
    List.iter
      (fun (fd, path) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match path with
        | Some p -> ( try Sys.remove p with Sys_error _ -> ())
        | None -> ())
      t.listeners;
    t.listeners <- [];
    let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter (fun c -> close_conn t c) remaining
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      let reads = ref [ t.wake_r ] in
      List.iter (fun (fd, _) -> reads := fd :: !reads) t.listeners;
      let writes = ref [] in
      Hashtbl.iter
        (fun fd conn ->
          if not conn.eof then reads := fd :: !reads;
          if has_output conn.ep then writes := fd :: !writes)
        t.conns;
      Hashtbl.iter
        (fun fd link ->
          reads := fd :: !reads;
          if link.connecting || has_output link.lep then
            writes := fd :: !writes)
        t.link_fds;
      (* the loop is about to park in select; a quiet server is waiting,
         not wedged *)
      Obs.Health.waiting ();
      match Unix.select !reads !writes [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready_r, ready_w, _ ->
          Obs.Health.beat ();
          List.iter
            (fun fd ->
              if fd = t.wake_r then drain_wake t
              else if List.mem_assoc fd t.listeners then accept_ready t fd
              else
                match (Hashtbl.find_opt t.conns fd, t.handler) with
                | Some conn, _ -> handle_readable t conn
                | None, Route router -> (
                    match Hashtbl.find_opt t.link_fds fd with
                    | Some link -> link_readable t router link
                    | None -> ())
                | None, Serve _ -> ())
            ready_r;
          (match t.handler with
          | Serve server ->
              drain_completed t server;
              dispatch_pending t server
          | Route _ -> ());
          List.iter
            (fun fd ->
              match (Hashtbl.find_opt t.conns fd, t.handler) with
              | Some conn, _ -> try_write t conn
              | None, Route router -> (
                  match Hashtbl.find_opt t.link_fds fd with
                  | Some link -> link_writable t router link
                  | None -> ())
              | None, Serve _ -> ())
            ready_w;
          loop ()
    end
  in
  Fun.protect ~finally:cleanup loop
