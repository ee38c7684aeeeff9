(* Reference verdicts for Check.Lp_oracle: lower a bounded LP to the
   standard form [A x = b, x >= 0] the dense tableau solves — shift each
   variable by its finite lower bound (or split a variable without one
   into a difference of two columns), add one [x <= ub] row per finite
   upper bound and one slack column per inequality — then map the
   optimum back to the original variables. *)

open Check.Lp_oracle

let verdict (p : problem) =
  let nv = Array.length p.lb in
  let col = Array.make nv 0 and split = Array.make nv false in
  let next = ref 0 in
  for v = 0 to nv - 1 do
    col.(v) <- !next;
    if p.lb.(v) = neg_infinity then (split.(v) <- true; next := !next + 2) else incr next
  done;
  let nstd = !next in
  let bound_rows =
    List.filter_map
      (fun v ->
        if p.ub.(v) < infinity then
          Some (Array.init nv (fun w -> if w = v then 1.0 else 0.0), Lp.Le, p.ub.(v))
        else None)
      (List.init nv Fun.id)
  in
  let rows = Array.append p.rows (Array.of_list bound_rows) in
  let m = Array.length rows in
  let nslack = Array.fold_left (fun acc (_, rel, _) -> if rel = Lp.Eq then acc else acc + 1) 0 rows in
  let ncols = nstd + nslack in
  let a = Array.make_matrix m ncols 0.0 and b = Array.make m 0.0 in
  let slack = ref nstd in
  Array.iteri
    (fun r (coeffs, rel, rhs) ->
      let rhs = ref rhs in
      Array.iteri
        (fun v coeff ->
          if coeff <> 0.0 then
            if split.(v) then begin
              a.(r).(col.(v)) <- a.(r).(col.(v)) +. coeff;
              a.(r).(col.(v) + 1) <- a.(r).(col.(v) + 1) -. coeff
            end
            else begin
              a.(r).(col.(v)) <- a.(r).(col.(v)) +. coeff;
              rhs := !rhs -. (coeff *. p.lb.(v))
            end)
        coeffs;
      b.(r) <- !rhs;
      match rel with
      | Lp.Eq -> ()
      | Lp.Le -> a.(r).(!slack) <- 1.0; incr slack
      | Lp.Ge -> a.(r).(!slack) <- -1.0; incr slack)
    rows;
  let sign = if p.maximize then -1.0 else 1.0 in
  let c = Array.make ncols 0.0 in
  for v = 0 to nv - 1 do
    c.(col.(v)) <- sign *. p.obj.(v);
    if split.(v) then c.(col.(v) + 1) <- -.sign *. p.obj.(v)
  done;
  if Array.exists2 (fun lb ub -> lb > ub) p.lb p.ub then Infeasible
  else
    match Dense_tableau.solve ~a ~b ~c () with
    | Dense_tableau.Optimal { x; _ } ->
        let value v =
          if split.(v) then x.(col.(v)) -. x.(col.(v) + 1) else x.(col.(v)) +. p.lb.(v)
        in
        let obj = ref 0.0 in
        for v = 0 to nv - 1 do
          obj := !obj +. (p.obj.(v) *. value v)
        done;
        Optimal !obj
    | Dense_tableau.Infeasible -> Infeasible
    | Dense_tableau.Unbounded -> Unbounded
    | Dense_tableau.Iteration_limit -> Unknown
