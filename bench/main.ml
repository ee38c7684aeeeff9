(* Benchmark harness: regenerates every experiment table (E1-E8, one per
   theorem of the paper — see DESIGN.md and EXPERIMENTS.md) and then runs
   Bechamel timing benchmarks, one per algorithm family. *)

open Bechamel
open Toolkit

(* --- timing benchmark fixtures ------------------------------------------ *)

let fixture_uniform =
  lazy (Workloads.Gen.uniform (Workloads.Rng.create 1001) ~n:40 ~m:4 ~k:5 ())

let fixture_uniform_small =
  lazy (Workloads.Gen.uniform (Workloads.Rng.create 1002) ~n:9 ~m:3 ~k:3 ())

let fixture_unrelated =
  lazy (Workloads.Gen.unrelated (Workloads.Rng.create 1003) ~n:20 ~m:4 ~k:4 ())

let fixture_ra =
  lazy
    (Workloads.Gen.restricted_class_uniform (Workloads.Rng.create 1004) ~n:20
       ~m:4 ~k:4 ())

let fixture_cu =
  lazy
    (Workloads.Gen.class_uniform_ptimes (Workloads.Rng.create 1005) ~n:20 ~m:4
       ~k:4 ())

let tests =
  Test.make_grouped ~name:"algorithms"
    [
      Test.make ~name:"list_scheduling n=40"
        (Staged.stage (fun () ->
             ignore (Algos.List_scheduling.schedule (Lazy.force fixture_uniform))));
      Test.make ~name:"lpt_placeholders n=40"
        (Staged.stage (fun () ->
             ignore (Algos.Lpt.schedule (Lazy.force fixture_uniform))));
      Test.make ~name:"exact_bnb n=9"
        (Staged.stage (fun () ->
             ignore (Algos.Exact.solve (Lazy.force fixture_uniform_small))));
      Test.make ~name:"lp_um_feasible n=20"
        (Staged.stage (fun () ->
             let t = Lazy.force fixture_unrelated in
             let guess = Core.Bounds.naive_upper_bound t /. 2.0 in
             ignore (Algos.Lp_um.feasible t ~makespan:guess)));
      Test.make ~name:"randomized_rounding n=20"
        (Staged.stage
           (let t = Lazy.force fixture_unrelated in
            let bound = Algos.Lp_um.lower_bound t in
            let rng = Workloads.Rng.create 7 in
            fun () ->
              ignore
                (Algos.Randomized_rounding.round rng t
                   bound.Algos.Lp_um.solution)));
      Test.make ~name:"ra_2approx_probe n=20"
        (Staged.stage
           (let t = Lazy.force fixture_ra in
            let guess = Core.Bounds.naive_upper_bound t in
            fun () ->
              ignore (Algos.Ra_class_uniform.schedule_for_guess t ~makespan:guess)));
      Test.make ~name:"um_3approx_probe n=20"
        (Staged.stage
           (let t = Lazy.force fixture_cu in
            let guess = Core.Bounds.naive_upper_bound t in
            fun () ->
              ignore (Algos.Um_class_uniform.schedule_for_guess t ~makespan:guess)));
      Test.make ~name:"ptas_probe eps=1/2 n=9"
        (Staged.stage
           (let t = Lazy.force fixture_uniform_small in
            let guess = Core.Bounds.naive_upper_bound t in
            fun () ->
              ignore
                (Algos.Uniform_ptas.schedule_for_guess ~eps:0.5 t
                   ~makespan:guess)));
      Test.make ~name:"config_ip probe n=10 (identical)"
        (Staged.stage
           (let t =
              Workloads.Gen.identical (Workloads.Rng.create 1006) ~n:10 ~m:3
                ~k:3 ()
            in
            (* a tight guess keeps the configuration space realistic *)
            let guess = 1.2 *. Core.Bounds.lower_bound t in
            fun () -> ignore (Algos.Config_ip.feasible t ~makespan:guess)));
      Test.make ~name:"splittable probe n=20"
        (Staged.stage
           (let t = Lazy.force fixture_ra in
            let guess = Core.Bounds.naive_upper_bound t in
            fun () ->
              ignore (Algos.Splittable.schedule_for_guess t ~makespan:guess)));
      Test.make ~name:"pseudoforest round K=20 m=30"
        (Staged.stage
           (let rng = Workloads.Rng.create 1007 in
            let g =
              Graphs.Pseudoforest.create ~num_classes:20 ~num_machines:30
            in
            (* random forest: attach each class to two random machines *)
            for k = 0 to 19 do
              Graphs.Pseudoforest.add_edge g ~cls:k
                ~machine:(Workloads.Rng.int rng 30);
              Graphs.Pseudoforest.add_edge g ~cls:k
                ~machine:(Workloads.Rng.int rng 30)
            done;
            let g = if Graphs.Pseudoforest.is_pseudoforest g then g else g in
            fun () ->
              if Graphs.Pseudoforest.is_pseudoforest g then
                ignore (Graphs.Pseudoforest.round g)));
      Test.make ~name:"bounds n=40"
        (Staged.stage (fun () ->
             ignore (Core.Bounds.lower_bound (Lazy.force fixture_uniform))));
      Test.make ~name:"simplex 60x60"
        (Staged.stage
           (let rng = Workloads.Rng.create 2024 in
            let a =
              Array.init 60 (fun _ ->
                  Array.init 60 (fun _ -> Workloads.Rng.float rng))
            in
            let b = Array.init 60 (fun _ -> 30.0 +. Workloads.Rng.float rng) in
            let c = Array.init 60 (fun _ -> Workloads.Rng.float rng -. 0.5) in
            fun () -> ignore (Lp.Simplex.solve ~a ~b ~c ())));
    ]

let benchmark () =
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let table = Stats.Table.create [ "benchmark"; "time/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Stats.Table.add_row table [ name; pretty ])
    (List.sort compare !rows);
  Stats.Table.print table

(* --- serving-layer benchmarks + machine-readable export ------------------ *)

(* One Obs.Expo.bench_record per benchmark, exported (same shape as
   `schedtool loadgen --json`) so the bench trajectory is
   machine-readable across runs and scripts/bench_gate.sh can compare
   either producer against the committed baseline. *)

(* Per-iteration latencies for percentile-bearing benchmarks land here;
   reset at the start of each measurement so a record's quantiles are
   its own. *)
let h_iter = Obs.Histogram.make "bench.iteration_latency_us"

let measure ?(with_percentiles = false) ~name ~iterations f =
  if with_percentiles then Obs.Histogram.reset h_iter;
  let before = Obs.Counter.snapshot () in
  let t0 = Obs.Sink.now_us () in
  for _ = 1 to iterations do
    if with_percentiles then begin
      let s0 = Obs.Sink.now_us () in
      f ();
      Obs.Histogram.observe h_iter (Obs.Sink.now_us () -. s0)
    end
    else f ()
  done;
  let wall_ns = (Obs.Sink.now_us () -. t0) *. 1e3 in
  let counters = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  let percentiles =
    if not with_percentiles then []
    else
      let s = Obs.Histogram.merged h_iter in
      let q p = Obs.Histogram.quantile s p in
      List.map
        (fun (label, p) -> (label ^ "_us", q p))
        Obs.Expo.quantile_points
      @ [ ("max_us", s.Obs.Histogram.max_value) ]
  in
  { Obs.Expo.bname = name; iterations; wall_ns; percentiles; counters; trace_ids = [] }

(* Exact per-iteration percentiles (sorted array, nearest rank) for
   records whose comparisons need finer resolution than the histogram's
   exponential buckets offer (a bucket spans up to ~25%): the profiler
   overhead gate checks a 3% p50 bound, invisible to bucket bounds. *)
let measure_exact ~name ~iterations f =
  let lat = Array.make iterations 0.0 in
  let before = Obs.Counter.snapshot () in
  let t0 = Obs.Sink.now_us () in
  for i = 0 to iterations - 1 do
    let s0 = Obs.Sink.now_us () in
    f ();
    lat.(i) <- Obs.Sink.now_us () -. s0
  done;
  let wall_ns = (Obs.Sink.now_us () -. t0) *. 1e3 in
  let counters = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  Array.sort compare lat;
  let q p =
    let idx = int_of_float (Float.round (p *. float_of_int iterations)) - 1 in
    lat.(max 0 (min (iterations - 1) idx))
  in
  let percentiles =
    List.map (fun (label, p) -> (label ^ "_us", q p)) Obs.Expo.quantile_points
    @ [ ("max_us", lat.(iterations - 1)) ]
  in
  { Obs.Expo.bname = name; iterations; wall_ns; percentiles; counters; trace_ids = [] }

let ns_per_iter (r : Obs.Expo.bench_record) =
  r.Obs.Expo.wall_ns /. float_of_int r.Obs.Expo.iterations

let exact_request instance =
  { Serve.Proto.solver = Some "exact"; deadline_ms = None; instance; trace = None }

(* A server whose pool stays in this domain: handle_request never touches
   the pool, so the bench does not want worker domains idling around. *)
let fresh_server () =
  Serve.Server.create { Serve.Server.default_config with jobs = 1 }

let mux_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* The mux loop's own lifecycle counters (wakeups, accepts racing the
   measurement snapshot) are scheduling-dependent; records that cross
   the mux transport drop them from the delta and carry a hand-shaped
   deterministic serve.mux.* ledger instead, so the hard counter gate
   stays exact. *)
let drop_mux_counters (r : Obs.Expo.bench_record) ledger =
  {
    r with
    Obs.Expo.counters =
      ledger
      @ List.filter
          (fun (n, _) -> not (String.starts_with ~prefix:"serve.mux." n))
          r.Obs.Expo.counters;
  }

let serve_benchmarks () =
  (* near-equal sizes over many machines keep branch-and-bound honest:
     ~50k nodes instead of the few hundred a loose instance prunes to *)
  let inst12 =
    Workloads.Gen.uniform (Workloads.Rng.create 3001) ~n:12 ~m:6 ~k:8
      ~size_range:(40.0, 60.0) ()
  in
  let big =
    Workloads.Gen.uniform (Workloads.Rng.create 3002) ~n:150 ~m:8 ~k:6 ()
  in
  let rng = Workloads.Rng.create 3003 in
  let expect_hit name (response : Serve.Proto.response) =
    match response with
    | Serve.Proto.Reply r when r.Serve.Proto.cache_hit -> ()
    | _ -> failwith (name ^ ": expected a cache hit")
  in
  (* cold path: a fresh server (empty cache) for every iteration, so each
     request pays canonicalization plus the full exact solve *)
  let cold =
    measure ~name:"serve cold exact n=12" ~iterations:10 (fun () ->
        let server = fresh_server () in
        (match Serve.Server.handle_request server (exact_request inst12) with
        | Serve.Proto.Reply r when not r.Serve.Proto.cache_hit -> ()
        | _ -> failwith "cold: expected a cache miss");
        Serve.Server.shutdown server)
  in
  (* hit path: one primed server answering random relabelings of the same
     instance — every request canonicalizes, hits, and maps the cached
     schedule back through its own labeling *)
  let server = fresh_server () in
  ignore (Serve.Server.handle_request server (exact_request inst12));
  let hit =
    measure_exact ~name:"serve cache hit n=12" ~iterations:200 (fun () ->
        let permuted = Serve.Canon.shuffle rng inst12 in
        expect_hit "hit" (Serve.Server.handle_request server (exact_request permuted)))
  in
  (* profiler overhead: the same primed-server hit loop with the CPU
     engine armed at 99 Hz. scripts/bench_gate.sh --profile-overhead
     compares the two records' exact p50s within this one run, so the
     bound survives slow shared hardware; the obs.profile.* counter
     deltas are sampling-nondeterministic and get filtered so the hard
     counter gate stays exact. *)
  let hit_profiled =
    match Obs.Profile.start ~rate:99.0 Obs.Profile.Cpu with
    | Error msg -> failwith ("profile overhead bench: " ^ msg)
    | Ok () ->
        let r =
          measure_exact ~name:"serve cache hit n=12 profiled 99hz"
            ~iterations:200 (fun () ->
              let permuted = Serve.Canon.shuffle rng inst12 in
              expect_hit "hit profiled"
                (Serve.Server.handle_request server (exact_request permuted)))
        in
        Obs.Profile.stop ();
        {
          r with
          Obs.Expo.counters =
            List.filter
              (fun (n, _) -> not (String.starts_with ~prefix:"obs.profile." n))
              r.Obs.Expo.counters;
        }
  in
  Serve.Server.shutdown server;
  let speedup = ns_per_iter cold /. ns_per_iter hit in
  (* deadline pressure: 1 ms on a 150-job instance must degrade to the
     fast path and still return a valid schedule, not blow the deadline *)
  let deadline =
    measure ~name:"serve deadline 1ms n=150" ~iterations:20 (fun () ->
        match Serve.Dispatch.solve ~deadline_ms:1.0 big with
        | Ok o ->
            if not o.Serve.Dispatch.degraded then
              failwith "deadline: expected degraded:true";
            if not (Core.Schedule.is_valid big o.Serve.Dispatch.result.Algos.Common.schedule)
            then failwith "deadline: degraded schedule is invalid"
        | Error msg -> failwith ("deadline: " ^ msg))
  in
  let canon =
    measure ~name:"canonicalize n=150" ~iterations:50 (fun () ->
        ignore (Serve.Canon.key big))
  in
  (* LP layer: Theorem 3.3's binary search over ILP-UM, one model whose
     probes each restart from the previous probe's basis. The record keeps
     only the work counters that pin the chain down (solves, primal
     phase-1 and dual pivots, probes); all are deterministic, so the hard
     counter gate checks them exactly. *)
  let lp_chain =
    let inst = Workloads.Gen.unrelated (Workloads.Rng.create 3004) ~n:28 ~m:4 ~k:4 () in
    let r =
      measure ~with_percentiles:true ~name:"lp_um lower_bound chain n=28 m=4"
        ~iterations:20 (fun () -> ignore (Algos.Lp_um.lower_bound inst))
    in
    {
      r with
      Obs.Expo.counters =
        List.map
          (fun name -> (name, Option.value ~default:0 (List.assoc_opt name r.Obs.Expo.counters)))
          [
            "lp.simplex.solves";
            "lp.simplex.phase1_iters";
            "lp.simplex.dual_iters";
            "core.binary_search.probes";
          ];
    }
  in
  (* session subsystem: a long-lived session absorbing ±1-job mutations,
     each followed by an incremental resolve. The repair seed comes from
     a deadline-pressured first resolve (cheap tier), so the record's
     counter deltas stay deterministic — no open-ended exact solve. *)
  let sessions = Serve.Session.create Serve.Session.default_config in
  let scache = Serve.Cache.create ~capacity:64 in
  let n100 =
    Workloads.Gen.uniform (Workloads.Rng.create 3004) ~n:100 ~m:8 ~k:6 ()
  in
  let session_handle req =
    Serve.Session.handle sessions ~cache:scache
      ~default_deadline_ms:(Some 1.0)
      ~pressure:(fun () -> false)
      req
  in
  let expect_session name response =
    match (response : Serve.Proto.response) with
    | Serve.Proto.Session_reply r -> r
    | Serve.Proto.Error msg -> failwith (name ^ ": " ^ msg)
    | _ -> failwith (name ^ ": expected a session reply")
  in
  let seed_session sid =
    ignore
      (expect_session "create"
         (session_handle { Serve.Proto.sid; op = Serve.Proto.S_create n100; trace = None }));
    ignore
      (expect_session "seed resolve"
         (session_handle
            {
              Serve.Proto.sid;
              op = Serve.Proto.S_resolve { deadline_ms = Some 1.0 }; trace = None
            }))
  in
  seed_session "bench-repair";
  let added_job =
    {
      Core.Instance.nsize = n100.Core.Instance.sizes.(0);
      nclass = n100.Core.Instance.job_class.(0);
      nptimes = None;
      neligible = None;
    }
  in
  let iter = ref 0 in
  let session_repair =
    measure ~with_percentiles:true ~name:"session repair +/-1 job n=100"
      ~iterations:40 (fun () ->
        incr iter;
        let op =
          if !iter land 1 = 1 then Serve.Proto.S_add_jobs [ added_job ]
          else Serve.Proto.S_drop_jobs [ 100 ]
        in
        ignore
          (expect_session "mutate"
             (session_handle { Serve.Proto.sid = "bench-repair"; op; trace = None }));
        let r =
          expect_session "resolve"
            (session_handle
               {
                 Serve.Proto.sid = "bench-repair";
                 op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
               })
        in
        match r.Serve.Proto.mode with
        | Some ("repair" | "fallback") -> ()
        | _ -> failwith "session repair: expected an incremental resolve")
  in
  ignore
    (session_handle
       { Serve.Proto.sid = "bench-repair"; op = Serve.Proto.S_close; trace = None });
  (* delta-aware cache: an unchanged session resolves straight out of the
     shared result cache *)
  seed_session "bench-hit";
  ignore
    (expect_session "prime"
       (session_handle
          {
            Serve.Proto.sid = "bench-hit";
            op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
          }));
  let session_hit =
    measure ~with_percentiles:true ~name:"session resolve cache hit n=100"
      ~iterations:200 (fun () ->
        let r =
          expect_session "hit resolve"
            (session_handle
               {
                 Serve.Proto.sid = "bench-hit";
                 op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
               })
        in
        if r.Serve.Proto.mode <> Some "cache" then
          failwith "session hit: expected a cache-mode resolve")
  in
  ignore
    (session_handle
       { Serve.Proto.sid = "bench-hit"; op = Serve.Proto.S_close; trace = None });
  (* flight recorder: one retained emit with two fields — the per-event
     cost every instrumented layer pays on the hot path *)
  let event =
    measure ~name:"event emit 2 fields" ~iterations:100_000 (fun () ->
        Obs.Event.emit "bench.event"
          [ ("i", Obs.Event.Int 1); ("s", Obs.Event.Str "x") ])
  in
  Obs.Event.clear ();
  (* span emit with trace ids: one Span.phase under an ambient trace
     ctx — the id allocation, two clock reads, alloc delta and ring
     write every attributed phase pays into the always-on phase
     recorder. The sink stays disabled, as when serving untraced. *)
  let span_emit =
    Obs.Phase.clear ();
    let r =
      measure ~name:"span emit with trace ids" ~iterations:100_000 (fun () ->
          Obs.Sink.with_ctx "bench.trace" (fun () ->
              Obs.Span.phase ~detail:"bench" "bench.span" (fun () -> ())))
    in
    Obs.Phase.clear ();
    r
  in
  (* health snapshot: one watchdog scan plus the composite status over
     this process's registered meters — the per-tick cost of the serve
     ticker. No ticker runs in the bench, so the health.checks counter
     delta is exactly the iteration count: the hard counter gate pins
     it. *)
  let health =
    measure ~name:"health snapshot" ~iterations:10_000 (fun () ->
        ignore (Obs.Health.check ());
        ignore (Obs.Health.status ()))
  in
  (* mux transport, held connections: one readiness loop on loopback
     TCP multiplexing 64 held-open client connections, round-robin
     cache-hit round-trips. A warm-up round-trip per connection first,
     so every accept lands before the measurement snapshot and the
     in-window counter delta is exactly the request ledger. *)
  let mux_held =
    let mserver = fresh_server () in
    ignore (Serve.Server.handle_request mserver (exact_request inst12));
    let mux = Serve.Mux.create mserver in
    let port =
      match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> failwith "mux held: expected a TCP address"
    in
    let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
    let connections = 64 in
    let conns = Array.init connections (fun _ -> mux_connect port) in
    let errors = ref 0 in
    let roundtrip i =
      let _, ic, oc = conns.(i mod connections) in
      Serve.Proto.write_request oc (exact_request inst12);
      match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply rep)) when rep.Serve.Proto.cache_hit -> ()
      | _ -> incr errors
    in
    for i = 0 to connections - 1 do
      roundtrip i
    done;
    let turn = ref 0 in
    let r =
      measure_exact ~name:"mux held connections=64 hit n=12" ~iterations:256
        (fun () ->
          roundtrip !turn;
          incr turn)
    in
    Array.iter
      (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
      conns;
    Serve.Mux.stop mux;
    Domain.join runner;
    Serve.Server.shutdown mserver;
    if !errors > 0 then failwith "mux held: transport errors on loopback";
    drop_mux_counters r
      [
        ("serve.mux.connections_held", connections);
        ("serve.mux.transport_errors", !errors);
      ]
  in
  (* mux transport, overload: one pool worker (jobs = 2) behind an
     admission queue of 4, and per round a pipelined burst of 9 exact
     requests of a fresh hard instance — 1 dispatched, 4 queued, 4 over
     the bound and shed. Replies serialize in arrival order, so every
     latency in the round rides the head-of-line solve: the p99 here is
     the round-trip under overload. The record's counters are the
     admission ledger read from the labeled cells: admission is decided
     synchronously on the event loop against the queue gauge, so it is
     exact run-to-run — whereas the solver-side counters race (the
     worker's own pressure check can shed the head solve when it reads
     health after the queue meter fills) and are left out. *)
  let mux_overload =
    let oserver =
      Serve.Server.create
        { Serve.Server.default_config with cache_capacity = 32; jobs = 2 }
    in
    let mux =
      Serve.Mux.create
        ~config:{ Serve.Mux.default_config with max_pending = 4 }
        oserver
    in
    let port =
      match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> failwith "mux overload: expected a TCP address"
    in
    let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
    let fd, ic, oc = mux_connect port in
    let rounds = 3 and burst = 9 in
    let iterations = rounds * burst in
    let lat = Array.make iterations 0.0 in
    let adm = Obs.Labeled.family "serve.mux.admission" ~label:"outcome" in
    let outcomes =
      [ "admitted"; "shed_queue_full"; "shed_pressure"; "shed_deadline" ]
    in
    let adm_value o = Obs.Labeled.value (Obs.Labeled.cell adm o) in
    let adm_before = List.map (fun o -> (o, adm_value o)) outcomes in
    let t0 = Obs.Sink.now_us () in
    for round = 0 to rounds - 1 do
      let hard =
        Workloads.Gen.uniform
          (Workloads.Rng.create (7100 + round))
          ~n:20 ~m:5 ~k:4 ()
      in
      let t_send = Obs.Sink.now_us () in
      for _ = 1 to burst do
        Serve.Proto.write_request oc (exact_request hard)
      done;
      for i = 0 to burst - 1 do
        match Serve.Proto.read_response ic with
        | Ok (Some (Serve.Proto.Reply _)) ->
            lat.((round * burst) + i) <- Obs.Sink.now_us () -. t_send
        | _ -> failwith "mux overload: expected a solve reply"
      done
    done;
    let wall_ns = (Obs.Sink.now_us () -. t0) *. 1e3 in
    let ledger =
      List.map
        (fun o ->
          ( "serve.mux.admission." ^ o,
            adm_value o - List.assoc o adm_before ))
        outcomes
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Serve.Mux.stop mux;
    Domain.join runner;
    Serve.Server.shutdown oserver;
    Array.sort compare lat;
    let q p =
      let idx = int_of_float (Float.round (p *. float_of_int iterations)) - 1 in
      lat.(max 0 (min (iterations - 1) idx))
    in
    let percentiles =
      List.map (fun (label, p) -> (label ^ "_us", q p)) Obs.Expo.quantile_points
      @ [ ("max_us", lat.(iterations - 1)) ]
    in
    {
      Obs.Expo.bname = "mux overload burst=9 queue=4";
      iterations;
      wall_ns;
      percentiles;
      counters =
        ledger
        @ [ ("serve.mux.replies", iterations); ("serve.mux.queue_bound", 4) ];
      trace_ids = [];
    }
  in
  let records =
    [ cold;
      hit;
      hit_profiled;
      deadline;
      canon;
      session_repair;
      session_hit;
      event;
      span_emit;
      health;
      mux_held;
      mux_overload;
      lp_chain
    ]
  in
  let table = Stats.Table.create [ "benchmark"; "iters"; "time/iter" ] in
  List.iter
    (fun (r : Obs.Expo.bench_record) ->
      let ns = ns_per_iter r in
      let pretty =
        if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.2f us" (ns /. 1e3)
      in
      Stats.Table.add_row table
        [ r.Obs.Expo.bname; string_of_int r.Obs.Expo.iterations; pretty ])
    records;
  Stats.Table.print table;
  print_endline "";
  Printf.printf "cache hit speedup over cold exact solve: %.1fx %s\n" speedup
    (if speedup >= 10.0 then "(>= 10x: ok)" else "(below the 10x target!)");
  let p50 (r : Obs.Expo.bench_record) =
    Option.value ~default:nan (List.assoc_opt "p50_us" r.Obs.Expo.percentiles)
  in
  Printf.printf
    "profiler overhead on cache hit p50: %.1f us -> %.1f us (%+.1f%%, 99 Hz cpu engine)\n"
    (p50 hit) (p50 hit_profiled)
    (100.0 *. (p50 hit_profiled -. p50 hit) /. p50 hit);
  print_endline "deadline 1ms on n=150: valid degraded:true schedule (checked)";
  let counter (r : Obs.Expo.bench_record) name =
    Option.value ~default:0 (List.assoc_opt name r.Obs.Expo.counters)
  in
  Printf.printf
    "mux: %d connections held with %d transport errors; overload p99 %.1f ms (%d admitted / %d shed, queue bound %d)\n"
    (counter mux_held "serve.mux.connections_held")
    (counter mux_held "serve.mux.transport_errors")
    (Option.value ~default:nan
       (List.assoc_opt "p99_us" mux_overload.Obs.Expo.percentiles)
    /. 1000.)
    (counter mux_overload "serve.mux.admission.admitted")
    (counter mux_overload "serve.mux.admission.shed_queue_full")
    (counter mux_overload "serve.mux.queue_bound");
  records

let () =
  print_endline "Scheduling on (Un-)Related Machines with Setup Times";
  print_endline "reproduction experiment suite (see EXPERIMENTS.md)";
  print_endline "";
  Experiments.Registry.run_all ~jobs:(Parallel.Pool.default_jobs ()) ();
  print_endline "=== timing benchmarks (Bechamel, monotonic clock) ===";
  print_endline "";
  (* counter deltas alongside the timings: how much solver work the
     benchmark loop actually drove (pivot counts, B&B nodes, ...) *)
  let before = Obs.Counter.snapshot () in
  benchmark ();
  print_endline "";
  print_endline "=== solver counter deltas during timing benchmarks ===";
  print_endline "";
  Stats.Table.print (Obs.Report.delta_table ~before);
  print_endline "";
  print_endline "=== serving layer (lib/serve) ===";
  print_endline "";
  let records = serve_benchmarks () in
  (* scripts/bench_gate.sh points this elsewhere to compare a fresh run
     against the committed baseline without clobbering it *)
  let path =
    match Sys.getenv_opt "BENCH_SERVE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_serve.json"
  in
  let out = open_out path in
  output_string out (Obs.Expo.bench_records_json records);
  close_out out;
  print_endline "";
  Printf.printf "wrote %s\n" path
