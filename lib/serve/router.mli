(** Shard router: a frame-level proxy that consistent-hashes requests
    across N backend server processes for cache affinity.

    Solve frames shard by {!Canon.prehash} of their instance — the
    fingerprint is relabeling-invariant, so permuted replays of an
    instance reach the shard whose result cache already holds it.
    Session frames shard by session id (the session's state lives on
    one backend); admin frames (stats/events/health/explain/profile)
    have no affinity and go to shard 0 — scrape backends directly for
    their own metrics.

    The relay itself runs on the {!Mux} event loop
    ({!Mux.create_router}): each client connection gets its own lazily
    dialed, non-blocking backend sockets (Unix paths or [HOST:PORT]), so
    replies never interleave across clients and come back in request
    order. A backend failure answers every frame pending on that
    backend connection with [status error], and the next frame re-dials;
    the client connection survives.

    Metrics (created per-{!create}): the labeled family
    [serve.router.forwarded{backend="<index>"}] and the
    [serve.router.backend_errors] counter. *)

(** The pure consistent-hash ring, exposed for determinism/balance
    tests. *)
module Ring : sig
  type t

  val make : ?vnodes:int -> int -> t
  (** [make n] builds a ring over backends [0..n-1] with [vnodes]
      points each (default 128). Deterministic: same [n] and [vnodes],
      same ring. Raises [Invalid_argument] if [n < 1] or [vnodes < 1]. *)

  val shard : t -> 'a -> int
  (** Map any key (hashed with [Hashtbl.hash]) to a backend index.
      Removing one backend from a ring only remaps the keys it owned
      (~1/n of the space). *)
end

type t

val create : ?vnodes:int -> string list -> t
(** [create backends] builds a router over the given backend targets
    (Unix socket paths or [HOST:PORT], see {!Scrape.resolve}). Raises
    [Invalid_argument] on an empty backend list. *)

val backend_count : t -> int

val backend : t -> int -> string
(** The target of backend [i]. *)

val shard_of_incoming : t -> Proto.incoming -> int
(** The backend index a frame routes to. *)

val forwarded : t -> int -> unit
(** Count one reply relayed from backend [i]. *)

val backend_error : t -> unit
(** Count one frame answered with an error because its backend could
    not be reached or dropped the connection. *)
