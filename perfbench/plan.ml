(* The three workloads: inputs generated before timing (every timed op
   from the seed), and a checker for every reply.

   Each workload is chosen so that one layer does nearly all the work:

   - solve-cold: distinct portfolio-sized instances (12 < n <= 40), so
     every request misses the cache and runs the LP-bound portfolio;
   - hit-replay: random relabelings of a pre-solved working set, so
     every request is a cache hit and costs one canonicalization;
   - session-churn: +/-1-job mutations of live sessions on fast-tier
     bases (n > 200), each followed by a resolve that repairs the
     previous schedule (or, for replaying sessions, hits the delta
     cache).

   No frame carries a deadline, so the server's work is a function of
   the seed alone. *)

module P = Serve.Proto
module I = Core.Instance

type op = {
  frames : string array;  (** sent in order, one in flight *)
  check : P.response array -> (float, string) result;
      (** replies in frame order -> makespan / lower bound *)
}

(* [schedtool serve --cache-size] and [--max-sessions], the same for
   every workload: hit-replay's working set and session-churn's live
   sessions stay below them (sessions below 0.8 x the cap, the
   [sessions] meter's degraded threshold). *)
let cache_size = 128
let max_sessions = 128

type t = {
  name : string;
  prefill : op array;  (** cache / session pre-fill, part of set-up *)
  warmup : op array;  (** discarded pass before the window, part of set-up *)
  ops : op array;  (** the timed window *)
  tail_q : float;  (** the tail percentile reported as op_tail_ms *)
  replay : int;  (** ops replayed in-process by the traced run *)
}

let names = [ "solve-cold"; "hit-replay"; "session-churn" ]

(* Ops in a window of [seconds]: a fixed count per second, so the work a
   run does depends on the seed and the run length only, never on how
   fast the machine is. The rates put one window near [seconds] on a
   2-core x86-64 VM. *)
let op_count ~rate ~seconds = max 1 (int_of_float (rate *. float_of_int seconds))

(* --- instance generators --------------------------------------------------- *)

type family = Identical | Uniform | Unrelated | Restricted | Cu_ptimes

let families = [| Identical; Uniform; Unrelated; Restricted; Cu_ptimes |]

let generate rng family ~n ~m ~k =
  let module G = Workloads.Gen in
  match family with
  | Identical -> G.identical rng ~n ~m ~k ()
  | Uniform -> G.uniform rng ~n ~m ~k ()
  | Unrelated -> G.unrelated rng ~n ~m ~k ()
  | Restricted -> G.restricted_class_uniform rng ~n ~m ~k ()
  | Cu_ptimes -> G.class_uniform_ptimes rng ~n ~m ~k ()

(* --- reply checks ----------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Rebuild the schedule against the request's instance and recompute the
   makespan; replies print it with six significant digits. *)
let check_schedule inst (r : P.reply) =
  if r.P.degraded then Error "degraded reply"
  else
    match Core.Schedule.make inst r.P.assignment with
    | exception Invalid_argument msg -> Error ("invalid schedule: " ^ msg)
    | s ->
        let ms = Core.Schedule.makespan s in
        if Float.abs (ms -. r.P.makespan) <= 1e-5 *. Float.max 1.0 ms then
          Ok ms
        else
          Error
            (Printf.sprintf "reply makespan %g, recomputed %g" r.P.makespan ms)

let reply_of = function
  | P.Reply r -> Ok r
  | P.Error msg -> Error ("error reply: " ^ msg)
  | _ -> Error "unexpected reply kind"

let session_of ~op ~generation ~jobs = function
  | P.Session_reply s ->
      if s.P.op <> op then Error (Printf.sprintf "op %s echoed as %s" op s.P.op)
      else if s.P.generation <> generation then
        Error
          (Printf.sprintf "generation %d, expected %d" s.P.generation generation)
      else if s.P.jobs <> jobs then
        Error (Printf.sprintf "%d jobs, expected %d" s.P.jobs jobs)
      else Ok s
  | P.Error msg -> Error ("error reply: " ^ msg)
  | _ -> Error "unexpected reply kind"

(* --- solve-cold -------------------------------------------------------------- *)

(* Size and family cycle by op index (period 15), so every seed draws the
   same mix and only the instance contents vary. *)
let cold_instance rng i =
  let n = 20 + (4 * (i / 5 mod 3)) in
  generate rng families.(i mod 5) ~n ~m:4 ~k:3

let solve_op inst =
  let lb = Core.Bounds.lower_bound inst in
  {
    frames = [| Wire.solve_frame inst |];
    check =
      (fun replies ->
        let* r = reply_of replies.(0) in
        let* ms = check_schedule inst r in
        Ok (ms /. lb));
  }

let solve_cold ~seed ~seconds =
  (* disjoint streams: warm-up instances can never repeat a timed one.
     The warm-up set is the same for every seed, so set-up does the same
     work on every run. *)
  let warm_rng = Workloads.Rng.split (Workloads.Rng.create 0) in
  let op_rng =
    let root = Workloads.Rng.create seed in
    ignore (Workloads.Rng.split root);
    Workloads.Rng.split root
  in
  let ops = op_count ~rate:24.0 ~seconds in
  {
    name = "solve-cold";
    prefill = [||];
    warmup = Array.init 10 (fun i -> solve_op (cold_instance warm_rng i));
    ops = Array.init ops (fun i -> solve_op (cold_instance op_rng i));
    tail_q = 0.9;
    replay = 40;
  }

(* --- hit-replay -------------------------------------------------------------- *)

let hit_bases = 100

let hit_replay ~seed ~seconds =
  let root = Workloads.Rng.create seed in
  let base_rng = Workloads.Rng.split root in
  let warm_rng = Workloads.Rng.split root in
  let op_rng = Workloads.Rng.split root in
  let bases =
    Array.init hit_bases (fun b ->
        generate base_rng families.(b mod 5)
          ~n:(240 + (4 * (b / 5 mod 6)))
          ~m:8 ~k:4)
  in
  let lbs = Array.map Core.Bounds.lower_bound bases in
  (* each base's makespan, learned from its pre-fill reply *)
  let base_ms = Array.make hit_bases nan in
  let prefill =
    Array.mapi
      (fun b inst ->
        {
          frames = [| Wire.solve_frame inst |];
          check =
            (fun replies ->
              let* r = reply_of replies.(0) in
              let* ms = check_schedule inst r in
              base_ms.(b) <- r.P.makespan;
              Ok (ms /. lbs.(b)));
        })
      bases
  in
  let hit rng i =
    let b = i mod hit_bases in
    let inst = Serve.Canon.shuffle rng bases.(b) in
    {
      frames = [| Wire.solve_frame inst |];
      check =
        (fun replies ->
          let* r = reply_of replies.(0) in
          let* ms = check_schedule inst r in
          if not r.P.cache_hit then Error "cache miss on a relabeled base"
          else if r.P.makespan <> base_ms.(b) then
            Error
              (Printf.sprintf "hit makespan %g, base solved to %g" r.P.makespan
                 base_ms.(b))
          else Ok (ms /. lbs.(b)));
    }
  in
  let ops = op_count ~rate:190.0 ~seconds in
  {
    name = "hit-replay";
    prefill;
    warmup = Array.init hit_bases (hit warm_rng);
    ops = Array.init ops (hit op_rng);
    (* p99 of these ~5 ms ops is set by host stalls: its run-to-run
       spread measured 48%, over the 25% bound; p90's fits *)
    tail_q = 0.9;
    replay = 400;
  }

(* --- session-churn ------------------------------------------------------------ *)

(* Bases are identical-machine instances. Repair on the other families
   polishes for a seed-dependent number of passes with a long tail (a
   unrelated or cu-ptimes session's first repairs run up to 64 passes,
   a uniform one's ~10x longer per op), which made the run-to-run spread
   of every latency exceed its bound. On identical machines two thirds
   of the repairs take one polish pass, so the median op sits inside
   that cluster for any seed.

   The base instances and the discarded warm-up round come from a fixed
   stream, the same for every seed; the seed draws every mutation of
   the timed window. How long the polish runs depends mostly on the
   base: with bases drawn per seed, p90 over five seeds ranged 41-61 ms
   (spread, IQR / median, 28%), against 8% with a fixed pool. And the
   warm-up round holds each session's first, longest repair, which made
   set-up time vary by half between seeds. The seed's scripts still move
   repair cost; 48 leaders average twice as many as 24 did, which more
   than halved the spread of ops_per_s and p90 over five seeds. *)
let leaders = 48
let followers = 8

(* A job to append: a copy of a random existing job (identical
   machines: no per-machine column). *)
let clone_job rng inst =
  let j = Workloads.Rng.int rng (I.num_jobs inst) in
  {
    I.nsize = inst.I.sizes.(j);
    nclass = inst.I.job_class.(j);
    nptimes = None;
    neligible = None;
  }

type mutation = Add of I.new_job | Drop of int

(* What a leader's resolve produced at each generation; a follower
   replaying the same script must be served that schedule from the
   delta cache. *)
type shared = (int * int, float) Hashtbl.t

let resolve_check ~shared ~leader ~is_follower ~generation ~jobs ~modes inst lb
    reply =
  let* s = session_of ~op:"resolve" ~generation ~jobs reply in
  let mode = Option.value ~default:"-" s.P.mode in
  let* r =
    match s.P.solve with Some r -> Ok r | None -> Error "resolve without schedule"
  in
  let* ms = check_schedule inst r in
  if not (List.mem mode modes) then Error ("unexpected resolve mode " ^ mode)
  else if is_follower then
    match Hashtbl.find_opt shared (leader, generation) with
    | Some lm when lm = r.P.makespan -> Ok (ms /. lb)
    | Some lm ->
        Error
          (Printf.sprintf "replayed resolve makespan %g, leader's %g"
             r.P.makespan lm)
    | None -> Error "replayed resolve before its leader's"
  else begin
    Hashtbl.replace shared (leader, generation) r.P.makespan;
    Ok (ms /. lb)
  end

let session_churn ~seed ~seconds =
  let fixed = Workloads.Rng.create 0 in
  let base_rng = Workloads.Rng.split fixed in
  let warm_rng = Workloads.Rng.split fixed in
  let script_rng = Workloads.Rng.split (Workloads.Rng.create seed) in
  let shared : shared = Hashtbl.create 256 in
  let bases =
    Array.init leaders (fun l ->
        generate base_rng Identical ~n:(204 + (2 * (l mod 5))) ~m:6 ~k:4)
  in
  (* session s < leaders leads; s >= leaders replays leader s - leaders *)
  let sessions = leaders + followers in
  let leader_of s = if s < leaders then s else s - leaders in
  let sid s =
    if s < leaders then Printf.sprintf "L%d" s
    else Printf.sprintf "F%d" (s - leaders)
  in
  let mirror = Array.init sessions (fun s -> bases.(leader_of s)) in
  let generation = Array.make sessions 0 in
  let scripts = Array.make leaders [||] in
  let prefill =
    Array.init sessions (fun s ->
        let inst = mirror.(s) and sid = sid s in
        let lb = Core.Bounds.lower_bound inst in
        let jobs = I.num_jobs inst in
        let is_follower = s >= leaders in
        {
          frames = [| Wire.create_frame ~sid inst; Wire.resolve_frame ~sid |];
          check =
            (fun replies ->
              let* _ = session_of ~op:"create" ~generation:0 ~jobs replies.(0) in
              resolve_check ~shared ~leader:(leader_of s) ~is_follower
                ~generation:0 ~jobs
                ~modes:(if is_follower then [ "cache" ] else [ "full" ])
                inst lb replies.(1));
        })
  in
  (* round r, session s: leaders draw mutation r of their script (add on
     even rounds, drop on odd ones, so sizes stay near the base);
     followers replay it *)
  let mutate s round =
    let l = leader_of s in
    if s < leaders then begin
      let inst = mirror.(s) in
      let rng = if round = 0 then warm_rng else script_rng in
      let m =
        if round land 1 = 0 then Add (clone_job rng inst)
        else Drop (Workloads.Rng.int rng (I.num_jobs inst))
      in
      scripts.(l) <- Array.append scripts.(l) [| m |]
    end;
    let m = scripts.(l).(round) in
    let sid = sid s in
    let before = mirror.(s) in
    let after, frame, op =
      match m with
      | Add j -> (I.append_jobs before [ j ], Wire.add_frame ~sid j, "add-jobs")
      | Drop d ->
          ( I.induced before
              (List.filter (( <> ) d) (List.init (I.num_jobs before) Fun.id)),
            Wire.drop_frame ~sid d,
            "drop-jobs" )
    in
    mirror.(s) <- after;
    generation.(s) <- generation.(s) + 1;
    let generation = generation.(s) and jobs = I.num_jobs after in
    let lb = Core.Bounds.lower_bound after in
    let is_follower = s >= leaders in
    {
      frames = [| frame; Wire.resolve_frame ~sid |];
      check =
        (fun replies ->
          let* _ = session_of ~op ~generation ~jobs replies.(0) in
          resolve_check ~shared ~leader:l ~is_follower ~generation ~jobs
            ~modes:(if is_follower then [ "cache" ] else [ "repair"; "fallback" ])
            after lb replies.(1));
    }
  in
  (* op [i] of the round-robin is round [i / sessions] of session
     [i mod sessions]: leaders before their followers in every round *)
  let schedule_ops first count =
    Array.init count (fun k ->
        let i = first + k in
        (i / sessions, i mod sessions))
  in
  let build pairs = Array.map (fun (round, s) -> mutate s round) pairs in
  let warmup = build (schedule_ops 0 sessions) in
  let ops = build (schedule_ops sessions (op_count ~rate:40.0 ~seconds)) in
  {
    name = "session-churn";
    prefill;
    warmup;
    ops;
    tail_q = 0.9;
    replay = 72;
  }

let make name ~seed ~seconds =
  match name with
  | "solve-cold" -> solve_cold ~seed ~seconds
  | "hit-replay" -> hit_replay ~seed ~seconds
  | "session-churn" -> session_churn ~seed ~seconds
  | other -> invalid_arg ("unknown workload " ^ other)
