type relation = Le | Ge | Eq

type var_info = { name : string; lb : float; ub : float; mutable obj : float }

type constr = { terms : (float * int) list; rel : relation; rhs : float }

(* The lowering to the engine's sparse form depends only on the
   constraints, never on bounds or objective, so it is kept until the
   model grows. *)
type lowering = {
  at : int * int; (* (nvars, nconstrs) it was built for *)
  mat : Simplex.matrix;
  row_lo : float array;
  row_hi : float array;
}

type t = {
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : constr list; (* newest first *)
  mutable nconstrs : int;
  mutable lowered : lowering option;
}

type var = int

type basis = Simplex.basis

let create () =
  {
    vars = Array.make 16 { name = ""; lb = 0.; ub = 0.; obj = 0. };
    nvars = 0;
    constrs = [];
    nconstrs = 0;
    lowered = None;
  }

let add_var ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) t name =
  if Float.is_nan lb || Float.is_nan ub then
    invalid_arg "Lp.add_var: NaN bound";
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  if t.nvars = Array.length t.vars then begin
    let bigger = Array.make (2 * t.nvars) t.vars.(0) in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end;
  t.vars.(t.nvars) <- { name; lb; ub; obj };
  t.nvars <- t.nvars + 1;
  t.nvars - 1

let add_constraint t terms rel rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Lp.add_constraint: foreign variable")
    terms;
  let terms = List.map (fun (c, v) -> (c, (v : var :> int))) terms in
  t.constrs <- { terms; rel; rhs } :: t.constrs;
  t.nconstrs <- t.nconstrs + 1

let num_vars t = t.nvars
let num_constraints t = t.nconstrs
let var_name t v = t.vars.(v).name
let var_index v = (v : var)
let var_bounds t v = (t.vars.(v).lb, t.vars.(v).ub)

type solution = {
  objective : float;
  var_values : float array; (* original variables, creation order *)
  eff_lb : float array;
  eff_ub : float array;
  final : Simplex.basis;
}

type result = Optimal of solution | Infeasible | Unbounded | Aborted

(* Rows in creation order; each row's relation becomes activity bounds. *)
let lower t =
  let key = (t.nvars, t.nconstrs) in
  match t.lowered with
  | Some l when l.at = key -> l
  | _ ->
      let rows = Array.of_list (List.rev t.constrs) in
      let m = Array.length rows in
      let cols = Array.make t.nvars [] in
      let row_lo = Array.make m neg_infinity and row_hi = Array.make m infinity in
      Array.iteri
        (fun r { terms; rel; rhs } ->
          List.iter (fun (coeff, v) -> cols.(v) <- (r, coeff) :: cols.(v)) terms;
          match rel with
          | Le -> row_hi.(r) <- rhs
          | Ge -> row_lo.(r) <- rhs
          | Eq ->
              row_lo.(r) <- rhs;
              row_hi.(r) <- rhs)
        rows;
      let l = { at = key; mat = Simplex.matrix_of_columns ~rows:m cols; row_lo; row_hi } in
      t.lowered <- Some l;
      l

let solve_warm ?(maximize = false) ?(eps = 1e-9) ?(overrides = []) ?basis t =
  let eff_lb = Array.init t.nvars (fun v -> t.vars.(v).lb) in
  let eff_ub = Array.init t.nvars (fun v -> t.vars.(v).ub) in
  List.iter
    (fun (v, (lb, ub)) ->
      if v < 0 || v >= t.nvars then invalid_arg "Lp.solve: foreign override";
      if lb > ub then invalid_arg "Lp.solve: override lb > ub";
      eff_lb.(v) <- Float.max eff_lb.(v) lb;
      eff_ub.(v) <- Float.min eff_ub.(v) ub)
    overrides;
  (* contradictory overrides: infeasible without touching the engine, and
     the caller's basis stays good for the next solve *)
  if Array.exists2 (fun lb ub -> lb > ub) eff_lb eff_ub then (Infeasible, basis)
  else
    let low = lower t in
    let sign = if maximize then -1.0 else 1.0 in
    let c = Array.init t.nvars (fun v -> sign *. t.vars.(v).obj) in
    let r =
      Simplex.solve_bounded ~eps ?basis low.mat ~c ~lb:eff_lb ~ub:eff_ub
        ~row_lo:low.row_lo ~row_hi:low.row_hi
    in
    match (r.Simplex.status, r.Simplex.basis) with
    | Simplex.Optimal, Some final ->
        (* clamp to the bounds to absorb round-off *)
        let var_values =
          Array.mapi (fun v x -> Float.min eff_ub.(v) (Float.max eff_lb.(v) x)) r.Simplex.x
        in
        let objective = ref 0.0 in
        for v = 0 to t.nvars - 1 do
          if t.vars.(v).obj <> 0.0 then
            objective := !objective +. (t.vars.(v).obj *. var_values.(v))
        done;
        (Optimal { objective = !objective; var_values; eff_lb; eff_ub; final }, r.Simplex.basis)
    | Simplex.Infeasible, b -> (Infeasible, b)
    | Simplex.Unbounded, _ -> (Unbounded, None)
    | (Simplex.Optimal | Simplex.Iteration_limit), _ -> (Aborted, None)

let solve ?maximize ?eps ?overrides t = fst (solve_warm ?maximize ?eps ?overrides t)

let objective_value s = s.objective
let value s v = s.var_values.(v)
let values s = Array.copy s.var_values
(* Basic solutions leave every nonbasic variable exactly on a bound; a
   nonbasic free variable (resting at 0) is the only way to miss one. *)
let is_vertex s =
  let basic = Array.make (Array.length s.var_values) false in
  Array.iter
    (fun h -> if h < Array.length basic then basic.(h) <- true)
    (Simplex.basic_columns s.final);
  let ok = ref true in
  Array.iteri
    (fun v x ->
      if not (basic.(v) || x = s.eff_lb.(v) || x = s.eff_ub.(v)) then ok := false)
    s.var_values;
  !ok

let pp_solution t ppf s =
  Format.fprintf ppf "@[<v>objective = %g@," s.objective;
  for v = 0 to t.nvars - 1 do
    if Float.abs s.var_values.(v) > 1e-12 then
      Format.fprintf ppf "%s = %g@," t.vars.(v).name s.var_values.(v)
  done;
  Format.fprintf ppf "@]"
