(* The per-layer ledger of a traced run: timings from the in-process
   replay (exact p50 of each span's samples), counts from the server's
   own counters over the TCP window. *)

let metric = Ledger.metric

let run (plan : Plan.t) ledger ~delta ~window_ops ~overhead_us ~shed =
  let rp =
    Replay.create ledger ~cache_capacity:Plan.cache_size
      ~max_sessions:Plan.max_sessions
  in
  let replay ~timed first ops =
    Array.iteri
      (fun i (op : Plan.op) -> Replay.op rp ~timed ~index:(first + i) op.Plan.frames)
      ops
  in
  replay ~timed:false 0 plan.Plan.prefill;
  replay ~timed:false 0 plan.Plan.warmup;
  let count = min plan.Plan.replay (Array.length plan.Plan.ops) in
  replay ~timed:true 0 (Array.sub plan.Plan.ops 0 count);
  Replay.shutdown rp;
  let p50 name =
    let s = Ledger.samples ledger name in
    (if Array.length s = 0 then 0.0 else Ledger.p50 s), Array.length s
  in
  let us name span =
    let v, n = p50 span in
    metric name "us" v ~note:(Printf.sprintf "p50 of %d calls" n)
  in
  let count name series = metric name "count" (delta series) ~note:"server counter delta" in
  let per_op name series =
    metric name "count/op" (delta series /. float_of_int window_ops)
      ~note:(Printf.sprintf "server counter delta / %d ops" window_ops)
  in
  let ratio name num den =
    let n = delta num and d = delta num +. delta den in
    metric name "ratio" (if d > 0.0 then n /. d else 0.0)
      ~note:(Printf.sprintf "%.0f of %.0f" n d)
  in
  let modes = [ "repair"; "fallback"; "cache"; "full" ] in
  let mode_series m = Printf.sprintf "serve_session_resolve{mode=%S}" m in
  let resolves = List.fold_left (fun acc m -> acc +. delta (mode_series m)) 0.0 modes in
  let handle, handled = p50 "server.handle_op" in
  let share name parts =
    let v = List.fold_left (fun acc p -> acc +. fst (p50 p)) 0.0 parts in
    metric name "ratio" (if handle > 0.0 then v /. handle else 0.0)
      ~note:(Printf.sprintf "p50 (%s) / p50 server.handle" (String.concat " + " parts))
  in
  let ops = float_of_int rp.Replay.timed_ops in
  [
    us "proto.decode_us" "proto.decode";
    us "proto.encode_us" "proto.encode";
    metric "proto.frame_bytes" "bytes"
      (float_of_int rp.Replay.bytes /. float_of_int (max 1 rp.Replay.frames))
      ~note:"request + reply bytes per frame";
    metric "mux.overhead_us" "us"
      (if Array.length overhead_us = 0 then 0.0 else Ledger.p50 overhead_us)
      ~note:(Printf.sprintf "p50 of %d frames: round trip - elapsed_us"
               (Array.length overhead_us));
    metric "mux.shed" "count" shed ~note:"non-admitted mux admissions";
    us "canon.prehash_us" "canon.prehash";
    us "canon.canonicalize_us" "canon.canonicalize";
    us "canon.key_us" "canon.key";
    ratio "canon.prehash_hit_ratio" "serve_canon_prehash_hits" "serve_canon_prehash_misses";
    us "cache.find_us" "cache.find";
    us "cache.put_us" "cache.put";
    ratio "cache.hit_ratio" "serve_cache_hits" "serve_cache_misses";
    count "cache.evictions" "serve_cache_evictions";
    us "dispatch.solve_us" "dispatch.solve";
    us "algos.fast_path_us" "algos.fast_path";
    count "dispatch.heavy_runs" "serve_dispatch_heavy_runs";
    count "dispatch.degraded" "serve_dispatch_degraded";
    count "dispatch.shed" "serve_dispatch_shed";
    us "algos.portfolio_us" "algos.portfolio";
    us "algos.rounding_us" "algos.rounding";
    us "algos.ptas_us" "algos.ptas";
    us "algos.special_us" "algos.special";
    us "algos.local_search_us" "algos.local_search";
    us "lp.lower_bound_us" "lp.lower_bound";
    per_op "lp.simplex.solves" "lp_simplex_solves";
    per_op "lp.simplex.phase1_iters" "lp_simplex_phase1_iters";
    per_op "lp.simplex.phase2_iters" "lp_simplex_phase2_iters";
    per_op "lp.simplex.degenerate_pivots" "lp_simplex_degenerate_pivots";
    per_op "lp.simplex.bland_switches" "lp_simplex_bland_switches";
    per_op "core.binary_search.probes" "core_binary_search_probes";
    us "session.mutate_us" "session.mutate";
    us "session.resolve_us" "session.resolve";
    us "incremental.repair_us" "incremental.repair";
    us "bounds.lower_bound_us" "bounds.lower_bound";
  ]
  @ List.map
      (fun m ->
        metric
          (Printf.sprintf "session.mode_%s_frac" m)
          "ratio"
          (if resolves > 0.0 then delta (mode_series m) /. resolves else 0.0)
          ~note:(Printf.sprintf "%.0f of %.0f resolves" (delta (mode_series m)) resolves))
      modes
  @ [
      count "algos.incremental.greedy_placed" "algos_incremental_greedy_placed";
      metric "server.handle_us" "us" handle
        ~note:(Printf.sprintf "p50 of %d ops, Server.handle_incoming in-process" handled);
      metric "layer.coverage" "ratio" (Replay.coverage rp)
        ~note:"sum of leaf layer calls / sum of server.handle";
      metric "gc.alloc_bytes_per_op" "bytes/op" (rp.Replay.alloc_bytes /. ops)
        ~note:"allocated inside handle_incoming";
      metric "gc.major_per_op" "count/op" (float_of_int rp.Replay.majors /. ops)
        ~note:"major collections inside handle_incoming";
      share "share.lp_lower_bound" [ "lp.lower_bound" ];
      share "share.canon" [ "canon.canonicalize"; "canon.key" ];
      share "share.repair" [ "incremental.repair" ];
    ]
