(* Shard router: a thin frame-level proxy that consistent-hashes each
   request onto one of N backend server processes, so repeated (and
   relabeled — the key is Canon.prehash, which is relabeling-invariant)
   instances keep landing on the shard that already cached them. The
   router does no solving and keeps no schedule state. This module is
   the routing policy and its metrics; the event loop in Mux owns the
   client and backend sockets. *)

module Ring = struct
  (* Classic consistent hashing: every backend owns [vnodes] points on
     a hash circle; a key belongs to the first point clockwise from its
     own hash. Adding or removing one backend only remaps the keys in
     the arcs it owned (~1/N of the space), so a resized fleet keeps
     most of its cache affinity. *)
  type t = { points : (int * int) array (* (point, backend), sorted *) }

  let make ?(vnodes = 128) n =
    if n < 1 then invalid_arg "Router.Ring.make: need at least one backend";
    if vnodes < 1 then invalid_arg "Router.Ring.make: vnodes must be >= 1";
    let points =
      Array.init (n * vnodes) (fun i ->
          let backend = i / vnodes and replica = i mod vnodes in
          (Hashtbl.hash (backend, replica, "ring"), backend))
    in
    Array.sort compare points;
    { points }

  let shard t key =
    let h = Hashtbl.hash key in
    let points = t.points in
    let n = Array.length points in
    (* first point >= h; wrap to the first point past the top *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd points.(if !lo = n then 0 else !lo)
end

type t = {
  backends : string array;
  ring : Ring.t;
  fwd_cells : Obs.Labeled.cell array;
  c_backend_errors : Obs.Counter.t;
}

let create ?(vnodes = 128) backends =
  if backends = [] then invalid_arg "Router.create: need at least one backend";
  let backends = Array.of_list backends in
  (* per-create like the mux metrics: only router processes carry the
     serve.router.* series *)
  let family = Obs.Labeled.family "serve.router.forwarded" ~label:"backend" in
  {
    backends;
    ring = Ring.make ~vnodes (Array.length backends);
    fwd_cells =
      Array.mapi (fun i _ -> Obs.Labeled.cell family (string_of_int i)) backends;
    c_backend_errors = Obs.Counter.make "serve.router.backend_errors";
  }

let backend_count t = Array.length t.backends
let backend t i = t.backends.(i)
let forwarded t i = Obs.Labeled.incr t.fwd_cells.(i)
let backend_error t = Obs.Counter.incr t.c_backend_errors

(* Solves shard by the relabeling-invariant instance fingerprint;
   session frames pin a session's whole lifecycle to one shard by its
   id (the state lives there); admin frames have no affinity and go to
   shard 0 — scrape each backend directly for its own metrics. *)
let shard_of_incoming t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req -> Ring.shard t.ring (Canon.prehash req.Proto.instance)
  | Proto.Session sreq -> Ring.shard t.ring ("session", sreq.Proto.sid)
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _
  | Proto.Profile _ ->
      0
