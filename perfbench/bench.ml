(* Serving benchmark: drives a real [schedtool serve --tcp 127.0.0.1:0 -j 1]
   process from this single-threaded client over one connection with one
   frame in flight (closed loop), checks every reply, and prints every
   metric by name and unit. The last line of standard output is one JSON
   object: end-to-end metrics with [--trace 0], the per-layer ledger with
   [--trace 1]. See README.md in this directory. *)

module P = Serve.Proto

type args = {
  workloads : string list;
  seed : int;
  seconds : int;
  trace : bool;
  schedtool : string;
  out : string;
}

let usage =
  "bench [--workload solve-cold|hit-replay|session-churn|all] [--seed N] \
   [--seconds S] [--trace 0|1] [--schedtool EXE] [--out DIR]"

let parse_args () =
  let a =
    ref
      {
        workloads = Plan.names;
        seed = 1;
        seconds = 20;
        trace = false;
        schedtool = "_build/default/bin/schedtool.exe";
        out = ".perfbench";
      }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> failwith (Printf.sprintf "%s expects a whole number, got %S" flag v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        a :=
          {
            !a with
            workloads =
              (if w = "all" then Plan.names
               else if List.mem w Plan.names then [ w ]
               else failwith ("unknown workload " ^ w));
          };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_arg "--seed" v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = max 1 (int_arg "--seconds" v) };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = int_arg "--trace" v <> 0 };
        go rest
    | "--schedtool" :: v :: rest ->
        a := { !a with schedtool = v };
        go rest
    | "--out" :: v :: rest ->
        a := { !a with out = v };
        go rest
    | arg :: _ -> failwith (Printf.sprintf "unexpected argument %S\nusage: %s" arg usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* --- the closed loop -------------------------------------------------------- *)

type window = {
  replies : P.response array option array;  (** None: the op did not complete *)
  lat_us : float array;  (** per completed op, wall *)
  stolen_us : float array;  (** per completed op, host steal booked during it *)
  overhead_us : float array;  (** per frame: round trip - server elapsed_us *)
  transport : string option;
}

let elapsed_of = function
  | P.Reply r -> Some r.P.elapsed_us
  | P.Session_reply { solve = Some r; _ } -> Some r.P.elapsed_us
  | _ -> None

(* One frame in flight; [ledger] (traced runs) records a span per op and
   per exchange. [speed] calibrates between ops. *)
let run_ops ?ledger ~speed conn (ops : Plan.op array) =
  let n = Array.length ops in
  let replies = Array.make n None in
  let lat = ref [] and stolen = ref [] and overhead = ref [] in
  let transport = ref None in
  let span name f =
    match ledger with Some l -> Ledger.span l name f | None -> f ()
  in
  (try
     Array.iteri
       (fun i (op : Plan.op) ->
         Option.iter (fun l -> l.Ledger.op <- i) ledger;
         let s0 = Speed.stolen_us () in
         let t0 = Ledger.now_us () in
         let rs =
           span "client.op" (fun () ->
               Array.map
                 (fun frame ->
                   let f0 = Ledger.now_us () in
                   match span "client.exchange" (fun () -> Wire.exchange conn frame) with
                   | Ok r ->
                       Option.iter
                         (fun e ->
                           overhead :=
                             (Ledger.now_us () -. f0 -. float_of_int e) :: !overhead)
                         (elapsed_of r);
                       r
                   | Error msg ->
                       transport := Some msg;
                       raise Exit)
                 op.Plan.frames)
         in
         let dt = Ledger.now_us () -. t0 in
         lat := dt :: !lat;
         stolen := Float.min dt (Speed.stolen_us () -. s0) :: !stolen;
         Speed.after_op speed dt;
         replies.(i) <- Some rs)
       ops
   with Exit -> ());
  Option.iter (fun l -> l.Ledger.op <- -1) ledger;
  {
    replies;
    lat_us = Array.of_list (List.rev !lat);
    stolen_us = Array.of_list (List.rev !stolen);
    overhead_us = Array.of_list !overhead;
    transport = !transport;
  }

(* --- set-up ------------------------------------------------------------------ *)

type live = {
  server : Wire.server;
  conn : Wire.conn;
  setup : Speed.interval;
  setup_replies : (Plan.op * P.response array option) list;
}

(* Spawn a fresh server, wait until it answers a health frame, pre-fill
   and warm it up. Everything here but calibration is charged to
   setup_s. *)
let setup args (plan : Plan.t) ~speed ~log =
  let m = Speed.mark speed in
  let server =
    Wire.spawn ~exe:args.schedtool ~log
      [
        "-j"; "1";
        "--cache-size"; string_of_int Plan.cache_size;
        "--max-sessions"; string_of_int Plan.max_sessions;
      ]
  in
  let conn = Wire.connect server in
  (match Wire.health conn with
  | Ok _ -> ()
  | Error e -> failwith ("server not ready: " ^ e));
  let pre = run_ops ~speed conn plan.Plan.prefill in
  let warm = run_ops ~speed conn plan.Plan.warmup in
  let setup = Speed.since speed m in
  List.iter
    (fun w -> Option.iter (fun e -> failwith ("set-up transport failure: " ^ e)) w.transport)
    [ pre; warm ];
  let pair ops w = List.combine (Array.to_list ops) (Array.to_list w.replies) in
  {
    server;
    conn;
    setup;
    setup_replies = pair plan.Plan.prefill pre @ pair plan.Plan.warmup warm;
  }

(* --- counters ------------------------------------------------------------------ *)

(* The server's own counters that pin down the work of a window. *)
let fingerprint_series =
  [
    "lp_simplex_solves";
    "lp_simplex_phase1_iters";
    "lp_simplex_phase2_iters";
    "lp_simplex_degenerate_pivots";
    "lp_simplex_bland_switches";
    "core_binary_search_probes";
    "serve_cache_hits";
    "serve_cache_misses";
    "serve_cache_evictions";
    "serve_canon_prehash_hits";
    "serve_canon_prehash_misses";
    "serve_dispatch_heavy_runs";
    "serve_dispatch_fast_only";
    "serve_dispatch_degraded";
    "serve_dispatch_shed";
    "serve_session_resolve{mode=\"full\"}";
    "serve_session_resolve{mode=\"repair\"}";
    "serve_session_resolve{mode=\"fallback\"}";
    "serve_session_resolve{mode=\"cache\"}";
    "algos_incremental_greedy_placed";
    "algos_incremental_repairs";
    "serve_mux_admission{outcome=\"admitted\"}";
  ]

let shed_series =
  [
    "serve_mux_admission{outcome=\"shed_queue_full\"}";
    "serve_mux_admission{outcome=\"shed_pressure\"}";
    "serve_mux_admission{outcome=\"shed_deadline\"}";
  ]

let deltas ~before ~after =
  let d = Serve.Scrape.diff ~before ~after in
  fun name ->
    match List.find_opt (fun x -> x.Serve.Scrape.dname = name) d with
    | Some x -> x.Serve.Scrape.d
    | None -> 0.0

(* A fingerprint is kept per (workload, seed, op count, build of the
   server and of this client); a later run with the same key must
   reproduce it exactly. *)
let compare_fingerprint args (plan : Plan.t) lines =
  let dir = Filename.concat args.out "fingerprints" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let build =
    Digest.to_hex
      (Digest.string (Digest.file args.schedtool ^ Digest.file Sys.executable_name))
  in
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-ops%d-%s.txt" plan.Plan.name args.seed
         (Array.length plan.Plan.ops) (String.sub build 0 12))
  in
  let text = String.concat "\n" lines ^ "\n" in
  if Sys.file_exists file then
    if Wire.read_file file = text then `Same else `Differs file
  else begin
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    `New
  end

(* --- one workload ---------------------------------------------------------------- *)

let metric = Ledger.metric

type outcome = {
  attempted : int;
  failed : int;
  check_failures : int;
  metrics : Ledger.metric list;
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

let tail_q (plan : Plan.t) n =
  (* the workload's fixed percentile, unless the run is too short for
     ten samples beyond it *)
  let q =
    List.find_opt
      (fun q -> Ledger.beyond n q >= 10)
      (List.filter (fun q -> q <= plan.Plan.tail_q) [ 0.99; 0.9; 0.5 ])
    |> Option.value ~default:0.5
  in
  (q, Printf.sprintf "p%g of %d ops, %d beyond" (100.0 *. q) n (Ledger.beyond n q))

let run_workload args name =
  let plan = Plan.make name ~seed:args.seed ~seconds:args.seconds in
  let log = Filename.concat args.out (name ^ ".server.log") in
  say "== %s (seed %d, %d timed ops, %d pre-fill, %d warm-up%s)" name args.seed
    (Array.length plan.Plan.ops) (Array.length plan.Plan.prefill)
    (Array.length plan.Plan.warmup)
    (if args.trace then ", traced" else "");
  (* set up several times and report the median; keep the last server *)
  let setups = if args.trace then 1 else 5 in
  let speed = Speed.create () in
  let rec repeat k acc =
    let l = setup args plan ~speed ~log in
    if k = setups then (l, List.rev (l :: acc))
    else begin
      Wire.close l.conn;
      Wire.release l.server;
      repeat (k + 1) (l :: acc)
    end
  in
  let live, setups_done = repeat 1 [] in
  let setup_intervals = List.map (fun l -> l.setup) setups_done in
  let ledger = Ledger.create () in
  let conn = live.conn and server = live.server in
  let health_failures = ref 0 in
  let read_health when_ =
    match Wire.health conn with
    | Ok "ok" -> ()
    | Ok s ->
        incr health_failures;
        say "health %s the window: %s" when_ s
    | Error e ->
        incr health_failures;
        say "health %s the window: %s" when_ e
  in
  let scrape () =
    match Wire.scrape conn with Ok s -> s | Error e -> failwith ("stats frame: " ^ e)
  in
  read_health "before";
  let before = scrape () in
  let cpu0 = Wire.cpu_ms server and m = Speed.mark speed in
  let w =
    run_ops ?ledger:(if args.trace then Some ledger else None) ~speed conn plan.Plan.ops
  in
  let window = Speed.since speed m and cpu1 = Wire.cpu_ms server in
  let after, rss =
    match w.transport with
    | Some e ->
        say "transport failure in the window: %s" e;
        ([], nan)
    | None ->
        let after = scrape () in
        read_health "after";
        (after, Wire.peak_rss_mb server)
  in
  Wire.close conn;
  Wire.release server;
  let delta = deltas ~before ~after in
  (* checks: set-up replies first (they teach the checker base results),
     then the window *)
  let check_failures = ref 0 in
  let check (op : Plan.op) = function
    | None -> None
    | Some rs -> (
        match op.Plan.check rs with
        | Ok ratio -> Some ratio
        | Error msg ->
            incr check_failures;
            if !check_failures <= 5 then say "check failed: %s" msg;
            None)
  in
  List.iter
    (fun l -> List.iter (fun (op, rs) -> ignore (check op rs)) l.setup_replies)
    setups_done;
  let setup_failures = !check_failures in
  let ratios =
    Array.to_list (Array.mapi (fun i op -> check op w.replies.(i)) plan.Plan.ops)
  in
  let ok_ratios = List.filter_map Fun.id ratios in
  let attempted = Array.length plan.Plan.ops in
  let ok = List.length ok_ratios in
  let shed = List.fold_left (fun acc s -> acc +. delta s) 0.0 shed_series in
  let dispatch_shed = delta "serve_dispatch_shed" in
  let failed =
    min attempted
      (attempted - ok + int_of_float shed + int_of_float dispatch_shed
      + !health_failures + setup_failures)
  in
  (* work fingerprint *)
  let fp = List.map (fun s -> Printf.sprintf "%s %.0f" s (delta s)) fingerprint_series in
  say "work fingerprint (server counter deltas over the window):";
  List.iter (fun l -> say "  %s" l) fp;
  let fp_ok =
    if w.transport <> None then true
    else
      match compare_fingerprint args plan fp with
      | `New -> say "  fingerprint recorded for this seed"; true
      | `Same -> say "  fingerprint identical to an earlier run with this seed"; true
      | `Differs file ->
          say "  FINGERPRINT DIFFERS from an earlier run with this seed (%s)" file;
          false
  in
  let raw = Ledger.sorted w.lat_us in
  let unstolen = Ledger.sorted (Array.map2 ( -. ) w.lat_us w.stolen_us) in
  let n = Array.length raw in
  let q_tail, tail_note = tail_q plan n in
  let slow = Speed.slowness speed in
  say "host: %.1f%% of the window stolen; calibration kernel %.0f us mean CPU \
       over %d runs, nominal %.0f us (slowness %.4f)"
    (100.0 *. (1.0 -. Speed.unstolen window)) (slow *. Speed.nominal_us)
    speed.Speed.samples Speed.nominal_us slow;
  (* every time is corrected to a nominal host (speed.ml); the raw value
     is printed beside it. An op's latency loses the steal booked during
     it. *)
  let latency name q ~note =
    let ms a = Ledger.percentile a q /. 1000.0 in
    metric name "ms" (Speed.nominal speed (ms unstolen))
      ~note:(Printf.sprintf "raw %.4g; %s" (ms raw) note)
  in
  let window_s = window.Speed.wall_us /. 1e6 in
  let ops_per_s raw = float_of_int ok /. raw in
  let ops_per_s_metric name note =
    metric name "1/s"
      (ops_per_s (Speed.wall_time speed window window_s))
      ~note:(Printf.sprintf "raw %.4g; %d ok ops in %.3f s%s" (ops_per_s window_s) ok window_s note)
  in
  let setup_raw = List.map (fun i -> i.Speed.wall_us /. 1e6) setup_intervals in
  let median l = Ledger.percentile (Ledger.sorted (Array.of_list l)) 0.5 in
  let e2e =
    [
      metric "setup_s" "s"
        (median (List.map (fun i -> Speed.wall_time speed i (i.Speed.wall_us /. 1e6)) setup_intervals))
        ~note:
          (Printf.sprintf "median of %d; raw %s" setups
             (String.concat " " (List.map (Printf.sprintf "%.3f") setup_raw)));
      ops_per_s_metric "ops_per_s" "";
      latency "op_p50_ms" 0.5 ~note:(Printf.sprintf "%d ops" n);
      latency "op_tail_ms" q_tail ~note:tail_note;
      (let per_op = (cpu1 -. cpu0) /. float_of_int (max 1 n) in
       metric "server_cpu_ms_per_op" "ms" (Speed.nominal speed per_op)
         ~note:(Printf.sprintf "raw %.4g; %.0f ms utime+stime" per_op (cpu1 -. cpu0)));
      metric "peak_rss_mb" "MB" rss ~note:"server VmHWM";
      metric "ratio_mean" "ratio"
        (Ledger.mean (Array.of_list ok_ratios))
        ~note:"makespan / Core.Bounds.lower_bound";
      metric "ok_frac" "ratio"
        (1.0 -. (float_of_int failed /. float_of_int attempted))
        ~note:(Printf.sprintf "failed_frac %.4f (%d of %d)"
                 (float_of_int failed /. float_of_int attempted) failed attempted);
    ]
  in
  let metrics =
    if not args.trace then e2e
    else begin
      let ops_per_s_traced =
        ops_per_s_metric "trace.ops_per_s" "; compare with ops_per_s of an untraced run"
      in
      say "replaying %d ops in-process, layer by layer" (min plan.Plan.replay attempted);
      let layers = Layers.run plan ledger ~delta ~window_ops:(max 1 n)
          ~overhead_us:w.overhead_us ~shed in
      let path = Filename.concat args.out (Printf.sprintf "trace-%s-seed%d.json" name args.seed) in
      Ledger.write_chrome_trace ledger ~path ~label:("perfbench " ^ name);
      (match Obs.Trace.validate_file path with
      | Ok events -> say "wrote %s (%d trace events, valid)" path events
      | Error e ->
          incr check_failures;
          say "trace %s failed validation: %s" path e);
      ops_per_s_traced :: layers
    end
  in
  List.iter
    (fun m ->
      say "  %-30s %14.4f %-8s %s" m.Ledger.mname m.Ledger.value m.Ledger.unit_ m.Ledger.note)
    (if args.trace then e2e @ metrics else metrics);
  {
    attempted;
    failed;
    check_failures = !check_failures + (if fp_ok then 0 else 1);
    metrics;
  }

(* --- result line -------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, m) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Ledger.json_string name)
              (json_number m.Ledger.value) (Ledger.json_string m.Ledger.unit_))
          metrics))

let main () =
  let args = parse_args () in
  if not (Sys.file_exists args.schedtool) then
    failwith ("server executable not found: " ^ args.schedtool);
  if not (Sys.file_exists args.out) then Sys.mkdir args.out 0o755;
  let stop _ =
    Wire.stop_all ();
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let results = List.map (fun w -> (w, run_workload args w)) args.workloads in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun (w, o) ->
        List.map
          (fun (m : Ledger.metric) -> ((if single then m.mname else w ^ "/" ^ m.mname), m))
          o.metrics)
      results
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
  let failures = sum (fun o -> o.check_failures) in
  print_endline
    (result_json ~correct:(failures = 0)
       ~attempted:(sum (fun o -> o.attempted))
       ~failed:(sum (fun o -> o.failed))
       metrics);
  if failures > 0 then exit 1

let () =
  match main () with
  | () -> ()
  | exception e ->
      Wire.stop_all ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      Printexc.print_backtrace stderr;
      exit 2
