(* The dense two-phase tableau simplex that served as the LP engine
   before the bounded dual simplex of [Lp.Simplex]. Kept verbatim in
   behaviour (Dantzig pricing, Bland fallback, artificial phase 1) as the
   reference side of the differential LP oracle; nothing outside the
   tests links it, and it bumps no counters. *)

type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
  | Infeasible
  | Unbounded
  | Iteration_limit

(* Internal mutable state: the tableau is kept in canonical form (basis
   columns are unit vectors) together with a reduced-cost row [z]. All hot
   loops use unsafe accesses; shapes are validated once in [solve]. *)
type state = {
  m : int;
  ncols : int;
  tab : float array array; (* m rows of length ncols *)
  rhs : float array; (* length m, kept >= -eps *)
  basis : int array; (* basic column of each row *)
  z : float array; (* reduced costs, length ncols *)
  banned : bool array; (* columns that may never enter (artificials) *)
  eps : float;
}

let pivot st r j =
  let row = st.tab.(r) in
  let piv = row.(j) in
  let inv = 1.0 /. piv in
  for t = 0 to st.ncols - 1 do
    Array.unsafe_set row t (Array.unsafe_get row t *. inv)
  done;
  row.(j) <- 1.0;
  st.rhs.(r) <- st.rhs.(r) *. inv;
  for r' = 0 to st.m - 1 do
    if r' <> r then begin
      let row' = st.tab.(r') in
      let f = Array.unsafe_get row' j in
      if f <> 0.0 then begin
        for t = 0 to st.ncols - 1 do
          Array.unsafe_set row' t
            (Array.unsafe_get row' t -. (f *. Array.unsafe_get row t))
        done;
        row'.(j) <- 0.0;
        st.rhs.(r') <- st.rhs.(r') -. (f *. st.rhs.(r))
      end
    end
  done;
  let f = st.z.(j) in
  if f <> 0.0 then begin
    for t = 0 to st.ncols - 1 do
      Array.unsafe_set st.z t
        (Array.unsafe_get st.z t -. (f *. Array.unsafe_get row t))
    done;
    st.z.(j) <- 0.0
  end;
  st.basis.(r) <- j

(* Entering column: Dantzig unless [bland]. Returns -1 at optimality. *)
let entering st ~bland =
  if bland then (
    let j = ref (-1) in
    (try
       for t = 0 to st.ncols - 1 do
         if (not st.banned.(t)) && st.z.(t) < -.st.eps then begin
           j := t;
           raise Exit
         end
       done
     with Exit -> ());
    !j)
  else begin
    let best = ref (-.st.eps) and j = ref (-1) in
    for t = 0 to st.ncols - 1 do
      if (not st.banned.(t)) && st.z.(t) < !best then begin
        best := st.z.(t);
        j := t
      end
    done;
    !j
  end

(* Leaving row by the minimum-ratio test; ties broken towards the smallest
   basic column index so that Bland's rule is honoured. -1 = unbounded. *)
let leaving st j =
  let best_ratio = ref infinity and r = ref (-1) in
  for r' = 0 to st.m - 1 do
    let a = st.tab.(r').(j) in
    if a > st.eps then begin
      let ratio = st.rhs.(r') /. a in
      if
        ratio < !best_ratio -. st.eps
        || (ratio < !best_ratio +. st.eps
           && (!r < 0 || st.basis.(r') < st.basis.(!r)))
      then begin
        best_ratio := ratio;
        r := r'
      end
    end
  done;
  !r

type phase_result = P_optimal | P_unbounded | P_iterations

(* Per-phase pivot statistics (kept for the Bland switch bookkeeping). *)
type phase_counts = {
  mutable iters : int;
  mutable degen : int;
  mutable bland : int;
}

let fresh_counts () = { iters = 0; degen = 0; bland = 0 }

let run_phase st ~max_iters ~counts =
  let degenerate_run = ref 0 in
  let rec go iters =
    if iters > max_iters then P_iterations
    else
      let j = entering st ~bland:(!degenerate_run > 50) in
      if j < 0 then P_optimal
      else
        let r = leaving st j in
        if r < 0 then P_unbounded
        else begin
          counts.iters <- counts.iters + 1;
          if st.rhs.(r) <= st.eps then begin
            incr degenerate_run;
            counts.degen <- counts.degen + 1;
            if !degenerate_run = 51 then counts.bland <- counts.bland + 1
          end
          else degenerate_run := 0;
          pivot st r j;
          go (iters + 1)
        end
  in
  go 0

let objective_value st cost =
  let v = ref 0.0 in
  for r = 0 to st.m - 1 do
    let b = st.basis.(r) in
    if b < Array.length cost && cost.(b) <> 0.0 then
      v := !v +. (cost.(b) *. st.rhs.(r))
  done;
  !v

(* Recompute the reduced-cost row from scratch for the given cost vector
   (costs of columns >= its length are zero). *)
let set_costs st cost =
  for t = 0 to st.ncols - 1 do
    st.z.(t) <- (if t < Array.length cost then cost.(t) else 0.0)
  done;
  for r = 0 to st.m - 1 do
    let b = st.basis.(r) in
    let cb = if b < Array.length cost then cost.(b) else 0.0 in
    if cb <> 0.0 then begin
      let row = st.tab.(r) in
      for t = 0 to st.ncols - 1 do
        Array.unsafe_set st.z t
          (Array.unsafe_get st.z t -. (cb *. Array.unsafe_get row t))
      done
    end
  done;
  (* Clamp basic columns to an exact zero reduced cost. *)
  for r = 0 to st.m - 1 do
    st.z.(st.basis.(r)) <- 0.0
  done

let solve ?max_iters ?(eps = 1e-9) ~a ~b ~c () =
  let p1 = fresh_counts () and p2 = fresh_counts () in
  let m = Array.length a in
  let n = Array.length c in
  if Array.length b <> m then invalid_arg "Simplex.solve: |b| must equal rows";
  Array.iteri
    (fun r row ->
      if Array.length row <> n then
        invalid_arg (Printf.sprintf "Simplex.solve: row %d has wrong width" r))
    a;
  let max_iters =
    match max_iters with Some v -> v | None -> 200 * (m + n + 1)
  in
  (* Normalized working copies with rhs >= 0. *)
  let sign = Array.init m (fun r -> if b.(r) < 0.0 then -1.0 else 1.0) in
  let rhs = Array.init m (fun r -> sign.(r) *. b.(r)) in
  let rows = Array.init m (fun r -> Array.map (fun x -> sign.(r) *. x) a.(r)) in
  (* Detect singleton columns usable as an initial basis (slacks). *)
  let basis = Array.make m (-1) in
  let col_rows = Array.make n (-2) in
  (* -2 = empty, -1 = multiple, r = singleton in row r *)
  for r = 0 to m - 1 do
    for j = 0 to n - 1 do
      if Float.abs rows.(r).(j) > eps then
        col_rows.(j) <- (if col_rows.(j) = -2 then r else -1)
    done
  done;
  for j = 0 to n - 1 do
    let r = col_rows.(j) in
    if r >= 0 && basis.(r) < 0 && rows.(r).(j) > eps then basis.(r) <- j
  done;
  let nart = ref 0 in
  for r = 0 to m - 1 do
    if basis.(r) < 0 then incr nart
  done;
  let ncols = n + !nart in
  let tab = Array.make_matrix m ncols 0.0 in
  for r = 0 to m - 1 do
    Array.blit rows.(r) 0 tab.(r) 0 n
  done;
  let next_art = ref n in
  for r = 0 to m - 1 do
    if basis.(r) < 0 then begin
      tab.(r).(!next_art) <- 1.0;
      basis.(r) <- !next_art;
      incr next_art
    end
    else begin
      (* Scale the row so the basis coefficient is exactly 1. *)
      let v = tab.(r).(basis.(r)) in
      if v <> 1.0 then begin
        let inv = 1.0 /. v in
        for t = 0 to ncols - 1 do
          tab.(r).(t) <- tab.(r).(t) *. inv
        done;
        rhs.(r) <- rhs.(r) *. inv
      end
    end
  done;
  let st =
    {
      m;
      ncols;
      tab;
      rhs;
      basis;
      z = Array.make ncols 0.0;
      banned = Array.make ncols false;
      eps;
    }
  in
  (* Phase 1: minimize the sum of artificials. *)
  let phase1_cost = Array.init ncols (fun t -> if t >= n then 1.0 else 0.0) in
  let outcome =
    if !nart = 0 then P_optimal
    else begin
      set_costs st phase1_cost;
      run_phase st ~max_iters ~counts:p1
    end
  in
  match outcome with
  | P_iterations -> Iteration_limit
  | P_unbounded ->
      (* The phase-1 objective is bounded below by 0; reaching this branch
         means numerical breakdown. *)
      Iteration_limit
  | P_optimal ->
      let feas_tol =
        eps *. float_of_int (m + 1)
        *. Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 b
      in
      if !nart > 0 && objective_value st phase1_cost > feas_tol then
        Infeasible
      else begin
        (* Drive basic artificials out where possible; rows where no
           original column has a nonzero entry are redundant and keep their
           zero-valued artificial. *)
        for r = 0 to m - 1 do
          if st.basis.(r) >= n then begin
            let j = ref (-1) in
            (try
               for t = 0 to n - 1 do
                 if Float.abs st.tab.(r).(t) > sqrt eps then begin
                   j := t;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !j >= 0 then pivot st r !j
          end
        done;
        for t = n to ncols - 1 do
          st.banned.(t) <- true
        done;
        set_costs st c;
        match run_phase st ~max_iters ~counts:p2 with
        | P_iterations -> Iteration_limit
        | P_unbounded -> Unbounded
        | P_optimal ->
            let x = Array.make n 0.0 in
            for r = 0 to m - 1 do
              if st.basis.(r) < n then
                x.(st.basis.(r)) <- Float.max 0.0 st.rhs.(r)
            done;
            let objective = ref 0.0 in
            for t = 0 to n - 1 do
              objective := !objective +. (c.(t) *. x.(t))
            done;
            (Optimal
                 { objective = !objective; x; basis = Array.copy st.basis })
      end
