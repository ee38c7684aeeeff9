(** The service's one transport. Every byte stream it reads — stdio,
    Unix-domain and TCP sockets, a shard router's backend sockets — is
    framed by {!Proto.Incremental}, and every solver-bound frame passes
    the same {!admission} decision.

    Sockets are served by one readiness-driven event loop
    ([Unix.select] over non-blocking sockets) that owns every listener
    and connection, so socket I/O never ties up a solver worker and a
    slow or idle client costs one fd plus its buffers — not a pool slot.
    Requests may be pipelined: every frame gets a response slot in
    arrival order and replies are serialized strictly in that order,
    even when a later frame (an inline shed, an admin frame) finishes
    first.

    Serving ({!create}): admin frames (stats, events, health, explain)
    answer inline; solver-bound frames (solve, session, profile) enter a
    bounded pending queue drained onto the server's {!Parallel.Pool}.
    The queue bound tightens with the {!Obs.Health} status lattice (see
    {!admission}), and an over-capacity frame is {e shed}: it is
    answered at once through the same dispatch path with a zero
    deadline, i.e. the near-linear fast path and a [degraded] reply (or
    the cached result, when the instance is already cached). Requests
    that out-wait their own deadline in the queue are shed the same way
    at dispatch time. A session frame whose id already has a frame
    queued or running on the same connection waits, outside the queue,
    until that frame is answered — a session's ops apply in the order
    the client sent them.

    Routing ({!create_router}): each frame is relayed verbatim to the
    backend {!Router.shard_of_incoming} picks, over the client's own
    lazily dialed, non-blocking backend connection, and the backend's
    reply fills the frame's slot. No pool, no queue.

    Stdio ({!serve_channels}): one sequential session; each frame is
    answered before the next is read, so its queue is always empty and
    {!admission} sheds only when the process is [Unhealthy].

    Observability (created per-mux, so non-mux processes do not carry
    the series): counters [serve.mux.accepted] / [serve.mux.closed] /
    [serve.mux.conn_rejected] / [serve.mux.wakeups]; the labeled family
    [serve.mux.admission{outcome=admitted|shed_queue_full|shed_pressure
    |shed_deadline}]; gauges [serve.mux.connections] /
    [serve.mux.queue_depth] / [serve.mux.queue_peak] (high-water mark);
    the [serve.mux.queue_wait_us] histogram; and, when serving, a
    [mux.queue] health meter (queue fill) and a [mux-admission]
    availability SLO (99% admitted). *)

type admission = Admitted | Shed_queue_full | Shed_pressure | Shed_deadline

val admission : max_pending:int -> depth:int -> admission
(** The one shedding decision: a solver-bound frame arriving with
    [depth] frames already queued is [Admitted] below the effective
    bound — [max_pending] when {!Obs.Health.status} is [Ok], half of it
    (at least 1) when [Degraded], zero when [Unhealthy] — and otherwise
    shed: [Shed_queue_full] at [max_pending], [Shed_pressure] below it.
    ([Shed_deadline] is the loop's own label for a queued frame that
    out-waited its deadline.) *)

type config = {
  max_pending : int;
      (** pending-queue bound at full health (default 64); halved when
          degraded, zero when unhealthy *)
  max_connections : int;
      (** cap on open sockets — clients plus a router's backend
          connections (default 1008: [Unix.select] limits descriptor
          values to [FD_SETSIZE], 1024 on Linux); further accepts are
          closed immediately and counted in [serve.mux.conn_rejected],
          further backend dials answer [status error] *)
}

val default_config : config

type t

val create : ?config:config -> Server.t -> t
(** A serving loop over a server; registers its health meter and SLO.
    Raises [Invalid_argument] if [max_pending < 1]. *)

val create_router : Router.t -> t
(** A routing loop over a router, with {!default_config}'s socket cap. *)

val add_tcp : t -> host:string -> port:int -> Unix.sockaddr
(** Bind and listen on a TCP address (IPv4; [SO_REUSEADDR]; client
    sockets get [TCP_NODELAY]). Returns the bound address — with port 0
    the kernel picks a free port, and the returned address carries it.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val add_unix : t -> path:string -> unit
(** Bind and listen on a Unix-domain socket at [path] (replacing a
    stale socket file; removed again when {!run} returns). *)

val run : t -> unit
(** Run the event loop until {!stop}: accept, read, parse, admit or
    relay, dispatch, write. Call after at least one [add_*]; raises
    [Invalid_argument] with no listeners. Closes listeners and any
    remaining connections on the way out. *)

val stop : t -> unit
(** Make {!run} return. Safe from a signal handler or another domain. *)

val serve_channels : Server.t -> in_channel -> out_channel -> unit
(** Run one sequential session until end-of-stream: read frames, write
    exactly one response each; malformed frames get [status error] and
    the session continues. *)
