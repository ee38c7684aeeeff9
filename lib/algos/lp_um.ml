type fractional = {
  makespan : float;
  x : float array array;
  y : float array array;
}

let log_src = Logs.Src.create "algos.lp_um" ~doc:"ILP-UM relaxation"

module Log = (val Logs.src_log log_src)

(* ILP-UM over every pair with finite times, built once per instance.
   The makespan guess is a variable [t] whose bounds each probe fixes,
   so the load rows (1) read [Σ p x + Σ s y - t <= 0]; the filters (5)
   and (1) (no [x_ij] with [p_ij > T], no [y_ik] with [s_ik > T]) become
   [ub = 0] overrides. The constraint matrix is therefore the same for
   every probe, and each probe restarts from the previous one's basis:
   with a zero objective every basis is dual feasible, so a probe costs
   dual pivots only. *)
type chain = {
  instance : Core.Instance.t;
  lp : Lp.t;
  xv : Lp.var option array array; (* [i][j] *)
  yv : Lp.var option array array; (* [i][k] *)
  tv : Lp.var;
  mutable basis : Lp.basis option;
}

let build instance =
  let n = Core.Instance.num_jobs instance in
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let job_class = instance.Core.Instance.job_class in
  let lp = Lp.create () in
  let yv = Array.make_matrix m kk None and xv = Array.make_matrix m n None in
  for i = 0 to m - 1 do
    for k = 0 to kk - 1 do
      if Core.Instance.setup_time instance i k < infinity then
        yv.(i).(k) <- Some (Lp.add_var ~ub:1.0 lp (Printf.sprintf "y_%d_%d" i k))
    done;
    for j = 0 to n - 1 do
      if Core.Instance.ptime instance i j < infinity && yv.(i).(job_class.(j)) <> None
      then xv.(i).(j) <- Some (Lp.add_var lp (Printf.sprintf "x_%d_%d" i j))
    done
  done;
  let tv = Lp.add_var lp "T" in
  (* (2): every job fully assigned *)
  for j = 0 to n - 1 do
    let terms = ref [] in
    for i = m - 1 downto 0 do
      Option.iter (fun v -> terms := (1.0, v) :: !terms) xv.(i).(j)
    done;
    Lp.add_constraint lp !terms Lp.Eq 1.0
  done;
  (* (1): machine loads against the guess *)
  for i = 0 to m - 1 do
    let terms = ref [ (-1.0, tv) ] in
    for j = 0 to n - 1 do
      Option.iter
        (fun v -> terms := (Core.Instance.ptime instance i j, v) :: !terms)
        xv.(i).(j)
    done;
    for k = 0 to kk - 1 do
      Option.iter
        (fun v -> terms := (Core.Instance.setup_time instance i k, v) :: !terms)
        yv.(i).(k)
    done;
    Lp.add_constraint lp !terms Lp.Le 0.0
  done;
  (* (4): setups dominate assignments *)
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      match (xv.(i).(j), yv.(i).(job_class.(j))) with
      | Some x, Some y -> Lp.add_constraint lp [ (1.0, y); (-1.0, x) ] Lp.Ge 0.0
      | None, _ -> ()
      | Some _, None -> assert false (* x exists only when y does *)
    done
  done;
  { instance; lp; xv; yv; tv; basis = None }

let probe chain t =
  let instance = chain.instance in
  let n = Core.Instance.num_jobs instance in
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let job_class = instance.Core.Instance.job_class in
  let fits i j =
    Core.Instance.ptime instance i j <= t
    && Core.Instance.setup_time instance i job_class.(j) <= t
  in
  let assignable = ref true in
  for j = 0 to n - 1 do
    let any = ref false in
    for i = 0 to m - 1 do
      if chain.xv.(i).(j) <> None && fits i j then any := true
    done;
    if not !any then assignable := false
  done;
  (* a job with no machine that fits within t: infeasible without an LP *)
  if not !assignable then None
  else begin
    let off = ref [ (chain.tv, (t, t)) ] in
    for i = 0 to m - 1 do
      for k = 0 to kk - 1 do
        match chain.yv.(i).(k) with
        | Some v when Core.Instance.setup_time instance i k > t ->
            off := (v, (0.0, 0.0)) :: !off
        | _ -> ()
      done;
      for j = 0 to n - 1 do
        match chain.xv.(i).(j) with
        | Some v when not (fits i j) -> off := (v, (0.0, 0.0)) :: !off
        | _ -> ()
      done
    done;
    let result, basis = Lp.solve_warm ~overrides:!off ?basis:chain.basis chain.lp in
    if Option.is_some basis then chain.basis <- basis;
    match result with
    | Lp.Optimal sol ->
        let read vars =
          Array.map
            (Array.map (function Some v -> Lp.value sol v | None -> 0.0))
            vars
        in
        Some { makespan = t; x = read chain.xv; y = read chain.yv }
    | Lp.Infeasible -> None
    | Lp.Unbounded -> assert false (* feasibility problem, zero objective *)
    | Lp.Aborted -> None
  end

let feasible instance ~makespan = probe (build instance) makespan

type bound = { lower : float; solution : fractional; probes : int }

let lower_bound ?(rel_tol = 0.02) instance =
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Lp_um.lower_bound: job eligible nowhere";
  let chain = build instance in
  let probes = ref 0 in
  let max_infeasible = ref lo in
  let probe t =
    incr probes;
    let answer = probe chain t in
    Log.debug (fun f ->
        f "probe %d: T=%g %s" !probes t
          (match answer with Some _ -> "feasible" | None -> "infeasible"));
    (match answer with
    | None -> if t > !max_infeasible then max_infeasible := t
    | Some _ -> ());
    answer
  in
  match Core.Binary_search.min_feasible ~lo ~hi ~rel_tol probe with
  | Some (_, sol) ->
      { lower = !max_infeasible; solution = sol; probes = !probes }
  | None ->
      (* The naive upper bound is achievable integrally, so the LP cannot
         be infeasible there. *)
      assert false
