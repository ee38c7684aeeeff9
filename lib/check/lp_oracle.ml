type problem = {
  lb : float array;
  ub : float array;
  obj : float array;
  maximize : bool;
  rows : (float array * Lp.relation * float) array;
}

type verdict = Optimal of float | Infeasible | Unbounded | Unknown
type reference = problem -> verdict

module R = Workloads.Rng

let small rng lo hi = float_of_int (lo + R.int rng (hi - lo + 1))
let relation rng = match R.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq

let gen_general rng =
  let nv = 1 + R.int rng 16 and nr = 1 + R.int rng 14 in
  let lb = Array.make nv 0.0 and ub = Array.make nv infinity in
  for v = 0 to nv - 1 do
    match R.int rng 10 with
    | 0 | 1 | 2 | 3 -> ()
    | 4 | 5 | 6 ->
        lb.(v) <- small rng (-3) 2;
        ub.(v) <- lb.(v) +. small rng 0 5
    | 7 ->
        lb.(v) <- neg_infinity;
        ub.(v) <- small rng (-2) 4
    | 8 -> lb.(v) <- neg_infinity
    | _ -> lb.(v) <- small rng (-3) 3
  done;
  let coeff () = if R.int rng 10 < 4 then 0.0 else small rng (-3) 3 in
  let rows =
    Array.init nr (fun _ ->
        (Array.init nv (fun _ -> coeff ()), relation rng, small rng (-4) 8))
  in
  let obj =
    if R.int rng 10 < 3 then Array.make nv 0.0
    else Array.init nv (fun _ -> small rng (-4) 4)
  in
  { lb; ub; obj; maximize = R.bool rng; rows }

(* Variable layout of the ILP-UM-shaped LP: y (machine-major), x
   (machine-major), then the makespan guess T. *)
type um = { n : int; m : int; k : int; p : float array array; s : float array array; cls : int array }

let gen_um rng =
  let n = 2 + R.int rng 8 and m = 1 + R.int rng 4 and k = 1 + R.int rng 3 in
  let cls = Array.init n (fun _ -> R.int rng k) in
  let p =
    Array.init m (fun _ ->
        Array.init n (fun _ -> if R.int rng 5 = 0 then infinity else small rng 1 9))
  in
  for j = 0 to n - 1 do
    (* every job eligible somewhere *)
    if Array.for_all (fun row -> row.(j) = infinity) p then p.(R.int rng m).(j) <- small rng 1 9
  done;
  let s = Array.init m (fun _ -> Array.init k (fun _ -> small rng 0 4)) in
  { n; m; k; p; s; cls }

let um_problem u =
  let y i c = (i * u.k) + c and x i j = (u.m * u.k) + (i * u.n) + j in
  let nv = (u.m * u.k) + (u.m * u.n) + 1 in
  let t = nv - 1 in
  let lb = Array.make nv 0.0 and ub = Array.make nv infinity in
  for i = 0 to u.m - 1 do
    for c = 0 to u.k - 1 do
      ub.(y i c) <- 1.0
    done;
    for j = 0 to u.n - 1 do
      if u.p.(i).(j) = infinity then ub.(x i j) <- 0.0
    done
  done;
  let row () = Array.make nv 0.0 in
  let assign =
    List.init u.n (fun j ->
        let r = row () in
        for i = 0 to u.m - 1 do
          r.(x i j) <- 1.0
        done;
        (r, Lp.Eq, 1.0))
  in
  let load =
    List.init u.m (fun i ->
        let r = row () in
        r.(t) <- -1.0;
        for j = 0 to u.n - 1 do
          if u.p.(i).(j) < infinity then r.(x i j) <- u.p.(i).(j)
        done;
        for c = 0 to u.k - 1 do
          r.(y i c) <- u.s.(i).(c)
        done;
        (r, Lp.Le, 0.0))
  in
  let setup =
    List.concat
      (List.init u.m (fun i ->
           List.init u.n (fun j ->
               let r = row () in
               r.(y i u.cls.(j)) <- 1.0;
               r.(x i j) <- -1.0;
               (r, Lp.Ge, 0.0))))
  in
  {
    lb;
    ub;
    obj = Array.make nv 0.0;
    maximize = false;
    rows = Array.of_list (assign @ load @ setup);
  }

(* The probe at guess [g]: T fixed, no x_ij with p_ij > g, no y_ik with
   s_ik > g (and no x_ij under such a y). *)
let um_probe u base g =
  let y i c = (i * u.k) + c and x i j = (u.m * u.k) + (i * u.n) + j in
  let lb = Array.copy base.lb and ub = Array.copy base.ub in
  let t = Array.length lb - 1 in
  lb.(t) <- g;
  ub.(t) <- g;
  for i = 0 to u.m - 1 do
    for c = 0 to u.k - 1 do
      if u.s.(i).(c) > g then ub.(y i c) <- 0.0
    done;
    for j = 0 to u.n - 1 do
      if u.p.(i).(j) > g || u.s.(i).(u.cls.(j)) > g then ub.(x i j) <- 0.0
    done
  done;
  { base with lb; ub }

(* Tighten a few variables' bounds within the current ones. *)
let tighten rng (p : problem) =
  let lb = Array.copy p.lb and ub = Array.copy p.ub in
  let nv = Array.length lb in
  for _ = 0 to R.int rng 2 do
    let v = R.int rng nv in
    match (lb.(v) > neg_infinity, ub.(v) < infinity) with
    | true, true ->
        let w = int_of_float (ub.(v) -. lb.(v)) in
        let a = lb.(v) +. small rng 0 w in
        lb.(v) <- a;
        ub.(v) <- a +. small rng 0 (int_of_float (ub.(v) -. a))
    | true, false -> ub.(v) <- lb.(v) +. small rng 0 4
    | false, true -> lb.(v) <- ub.(v) -. small rng 0 4
    | false, false ->
        if R.bool rng then (lb.(v) <- small rng (-3) 3; ub.(v) <- lb.(v))
        else ub.(v) <- small rng (-3) 3
  done;
  { p with lb; ub }

(* A base problem and the sequence of effective problems solved after
   the cold one, each warm from the previous final basis. *)
let gen_chain rng =
  if R.int rng 4 = 0 then begin
    let u = gen_um rng in
    let base = um_problem u in
    let guesses = List.init (3 + R.int rng 4) (fun _ -> small rng 1 20) in
    (base, List.map (um_probe u base) guesses)
  end
  else begin
    let base = gen_general rng in
    let t1 = tighten rng base in
    let t2 = tighten rng t1 in
    (base, [ t1; t2; base; tighten rng base ])
  end

let build (p : problem) =
  let model = Lp.create () in
  let vars =
    Array.mapi
      (fun v lb -> Lp.add_var ~lb ~ub:p.ub.(v) ~obj:p.obj.(v) model (Printf.sprintf "v%d" v))
      p.lb
  in
  Array.iter
    (fun (coeffs, rel, rhs) ->
      let terms = ref [] in
      Array.iteri (fun v a -> if a <> 0.0 then terms := (a, vars.(v)) :: !terms) coeffs;
      Lp.add_constraint model !terms rel rhs)
    p.rows;
  (model, vars)

let overrides (base : problem) (eff : problem) vars =
  let acc = ref [] in
  Array.iteri
    (fun v var ->
      if eff.lb.(v) <> base.lb.(v) || eff.ub.(v) <> base.ub.(v) then
        acc := (var, (eff.lb.(v), eff.ub.(v))) :: !acc)
    vars;
  !acc

let verdict_name = function
  | Optimal o -> Printf.sprintf "optimal %g" o
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Unknown -> "unknown"

let of_result = function
  | Lp.Optimal sol -> Optimal (Lp.objective_value sol)
  | Lp.Infeasible -> Infeasible
  | Lp.Unbounded -> Unbounded
  | Lp.Aborted -> Unknown

let same_verdict a b =
  match (a, b) with
  | Optimal x, Optimal y -> Violation.approx_eq x y
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  | _ -> false

let tol = 1e-6

(* Feasibility and extreme-point checks of one optimal point. *)
let check_point ~step (eff : problem) sol vars =
  let v fmt = Violation.v ~algo:"lp" fmt in
  let x = Array.map (Lp.value sol) vars in
  let out = ref [] in
  Array.iteri
    (fun r (coeffs, rel, rhs) ->
      let act = ref 0.0 and mag = ref (Float.abs rhs) in
      Array.iteri
        (fun j a ->
          act := !act +. (a *. x.(j));
          mag := !mag +. Float.abs (a *. x.(j)))
        coeffs;
      let slack = tol *. (1.0 +. !mag) in
      let ok =
        match rel with
        | Lp.Le -> !act <= rhs +. slack
        | Lp.Ge -> !act >= rhs -. slack
        | Lp.Eq -> Float.abs (!act -. rhs) <= slack
      in
      if not ok then
        out := v ~prop:"rows" "step %d: row %d activity %g violates rhs %g" step r !act rhs :: !out)
    eff.rows;
  Array.iteri
    (fun j xj ->
      if xj < eff.lb.(j) -. tol || xj > eff.ub.(j) +. tol then
        out :=
          v ~prop:"bounds" "step %d: x%d = %g outside [%g, %g]" step j xj eff.lb.(j) eff.ub.(j)
          :: !out)
    x;
  let has_free = ref false and inside = ref 0 in
  Array.iteri
    (fun j xj ->
      let lb = eff.lb.(j) and ub = eff.ub.(j) in
      if lb = neg_infinity && ub = infinity then has_free := true;
      if xj > lb +. (tol *. (1.0 +. Float.abs lb)) && xj < ub -. (tol *. (1.0 +. Float.abs ub))
      then incr inside)
    x;
  if not !has_free then begin
    if !inside > Array.length eff.rows then
      out :=
        v ~prop:"vertex" "step %d: %d variables strictly inside their bounds, %d rows" step
          !inside (Array.length eff.rows)
        :: !out;
    if not (Lp.is_vertex sol) then
      out := v ~prop:"vertex" "step %d: final basis leaves a nonbasic variable off its bounds" step :: !out
  end;
  !out

(* Violations of one chain, and the number of engine solves it took. *)
let check_chain ~reference (base, steps) =
  let model, vars = build base in
  let v fmt = Violation.v ~algo:"lp" fmt in
  let out = ref [] and solves = ref 0 in
  let solve ?basis eff =
    incr solves;
    Lp.solve_warm ~maximize:eff.maximize ~overrides:(overrides base eff vars) ?basis model
  in
  let judge ~step eff (result, _) =
    let mine = of_result result in
    let theirs = reference eff in
    if mine = Unknown then out := v ~prop:"verdict" "step %d: engine gave up" step :: !out
    else if theirs <> Unknown && not (same_verdict mine theirs) then
      out :=
        v ~prop:(match (mine, theirs) with Optimal _, Optimal _ -> "objective" | _ -> "verdict")
          "step %d: engine says %s, reference says %s" step (verdict_name mine)
          (verdict_name theirs)
        :: !out;
    match result with
    | Lp.Optimal sol -> out := check_point ~step eff sol vars @ !out
    | _ -> ()
  in
  let first = solve base in
  judge ~step:0 base first;
  let basis = ref (snd first) in
  List.iteri
    (fun i eff ->
      let step = i + 1 in
      let warm = solve ?basis:!basis eff in
      judge ~step eff warm;
      (* a cold solve of the same LP must agree with the warm one *)
      let cold = solve eff in
      let vw = of_result (fst warm) and vc = of_result (fst cold) in
      if not (same_verdict vw vc) then
        out :=
          v ~prop:"warm" "step %d: warm re-solve says %s, cold solve says %s" step
            (verdict_name vw) (verdict_name vc)
          :: !out;
      if Option.is_some (snd warm) then basis := snd warm)
    steps;
  (List.rev !out, !solves)

let check_case ~reference rng = fst (check_chain ~reference (gen_chain rng))

type summary = { cases : int; solves : int; failures : (int * Violation.t list) list }

let run ~reference ~seed ~cases =
  let root = R.create seed in
  let rngs = R.split_n root cases in
  let solves = ref 0 and failures = ref [] in
  Array.iteri
    (fun i rng ->
      let vs, k = check_chain ~reference (gen_chain rng) in
      solves := !solves + k;
      if vs <> [] then failures := (i, vs) :: !failures)
    rngs;
  { cases; solves = !solves; failures = List.rev !failures }
