type matrix = {
  rows : int;
  cols : int;
  col_start : int array; (* length cols + 1 *)
  row_index : int array;
  value : float array;
}

let matrix_of_columns ~rows columns =
  let cols = Array.length columns in
  let col_start = Array.make (cols + 1) 0 in
  let merged =
    Array.map
      (fun entries ->
        List.iter
          (fun (r, _) ->
            if r < 0 || r >= rows then
              invalid_arg "Simplex.matrix_of_columns: row out of range")
          entries;
        (* sum duplicate rows, drop exact zeros *)
        let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) entries in
        let rec merge acc = function
          | (r, v) :: (r', v') :: rest when r = r' -> merge acc ((r, v +. v') :: rest)
          | (r, v) :: rest -> merge (if v = 0.0 then acc else (r, v) :: acc) rest
          | [] -> List.rev acc
        in
        merge [] sorted)
      columns
  in
  Array.iteri
    (fun j entries -> col_start.(j + 1) <- col_start.(j) + List.length entries)
    merged;
  let nnz = col_start.(cols) in
  let row_index = Array.make nnz 0 and value = Array.make nnz 0.0 in
  Array.iteri
    (fun j entries ->
      List.iteri
        (fun k (r, v) ->
          row_index.(col_start.(j) + k) <- r;
          value.(col_start.(j) + k) <- v)
        entries)
    merged;
  { rows; cols; col_start; row_index; value }

let matrix_of_dense ~cols a =
  let rows = Array.length a in
  Array.iteri
    (fun r row ->
      if Array.length row <> cols then
        invalid_arg (Printf.sprintf "Simplex.solve: row %d has wrong width" r))
    a;
  matrix_of_columns ~rows
    (Array.init cols (fun j ->
         let acc = ref [] in
         for r = rows - 1 downto 0 do
           if a.(r).(j) <> 0.0 then acc := (r, a.(r).(j)) :: !acc
         done;
         !acc))

(* A basis of the [cols + rows] variables: the basic variable of each
   position, and for every variable whether it rests at its upper bound
   when nonbasic. [binv] is the explicit inverse that belongs to [head]
   on [owner]; the next solve that starts from this basis on the same
   matrix takes it over (and sets it to [None]), so a basis handed out
   twice is refactored the second time instead of sharing mutable
   state. *)
type basis = {
  owner : matrix;
  head : int array;
  upper : bool array;
  mutable binv : float array option;
}

let basic_columns b = Array.copy b.head

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type result = {
  status : status;
  x : float array;
  objective : float;
  basis : basis option;
}

let c_solves = Obs.Counter.make "lp.simplex.solves"
let c_phase1_iters = Obs.Counter.make "lp.simplex.phase1_iters"
let c_phase2_iters = Obs.Counter.make "lp.simplex.phase2_iters"
let c_dual_iters = Obs.Counter.make "lp.simplex.dual_iters"
let c_warm_starts = Obs.Counter.make "lp.simplex.warm_starts"
let c_degenerate = Obs.Counter.make "lp.simplex.degenerate_pivots"
let c_bland = Obs.Counter.make "lp.simplex.bland_switches"

(* Solver state. Variables [0, n) are the structural columns of [a];
   variable [n + i] is the logical of row [i], with column [-e_i] and the
   row's activity bounds, so every row reads [a_i·x - s_i = 0]. [binv] is
   B⁻¹ stored column-major: [binv.(i * m + p)] is entry [(p, i)]. All
   pivot statistics are kept locally and flushed to the process-wide
   counters once per solve. *)
type state = {
  m : int;
  n : int;
  a : matrix;
  lo : float array;
  hi : float array;
  cost : float array; (* working costs (perturbed during dual simplex) *)
  head : int array;
  pos : int array; (* position in [head], -1 when nonbasic *)
  upper : bool array; (* nonbasic at its (finite) upper bound *)
  z : float array; (* current value of every variable *)
  d : float array; (* reduced costs, valid for nonbasic variables *)
  binv : float array;
  alpha : float array; (* FTRAN result: B⁻¹ a_q *)
  rho : float array; (* BTRAN result: row r of B⁻¹ *)
  prow : float array; (* pivot row rho·a_j *)
  y : float array; (* simplex multipliers *)
  work : float array;
  eps : float;
  mutable updates : int; (* eta updates since the last refactor *)
  mutable iters : int;
  mutable phase1 : int;
  mutable phase2 : int;
  mutable dual : int;
  mutable degen : int;
  mutable bland : int;
}

let piv_tol = 1e-9
let refactor_every = 1000
let bland_after = 50

(* Primal feasibility is judged 100 times looser than optimality: basic
   values carry the round-off of every eta update since the last
   refactorization, and a tighter test only chases that noise. *)
let tol_p st b = 100.0 *. st.eps *. (1.0 +. Float.abs b)
let tol_d st j = st.eps *. (1.0 +. Float.abs st.cost.(j))
let fixed st j =
  st.lo.(j) > neg_infinity && st.hi.(j) -. st.lo.(j) <= tol_p st st.lo.(j)

let nonbasic_value st j =
  if st.upper.(j) then st.hi.(j)
  else if st.lo.(j) > neg_infinity then st.lo.(j)
  else 0.0

(* --- linear algebra ------------------------------------------------------ *)

let ftran st q =
  let m = st.m and alpha = st.alpha and binv = st.binv in
  Array.fill alpha 0 m 0.0;
  if q < st.n then
    for k = st.a.col_start.(q) to st.a.col_start.(q + 1) - 1 do
      let base = st.a.row_index.(k) * m and v = st.a.value.(k) in
      for p = 0 to m - 1 do
        Array.unsafe_set alpha p
          (Array.unsafe_get alpha p +. (v *. Array.unsafe_get binv (base + p)))
      done
    done
  else begin
    let base = (q - st.n) * m in
    for p = 0 to m - 1 do
      Array.unsafe_set alpha p (-.Array.unsafe_get binv (base + p))
    done
  end

let btran_row st r =
  let m = st.m in
  for i = 0 to m - 1 do
    Array.unsafe_set st.rho i (Array.unsafe_get st.binv ((i * m) + r))
  done

(* [v · a_j] for a dense row-space vector [v]. *)
let dot_col st v j =
  if j < st.n then begin
    let s = ref 0.0 in
    for k = st.a.col_start.(j) to st.a.col_start.(j + 1) - 1 do
      s := !s +. (Array.unsafe_get v st.a.row_index.(k) *. st.a.value.(k))
    done;
    !s
  end
  else -.v.(j - st.n)

(* Replace the basic variable at position [r] by the column held in
   [alpha]: B⁻¹ ← E·B⁻¹ with the eta matrix of [alpha]. Costs one pass
   over the columns of B⁻¹ whose row-[r] entry is nonzero. *)
let update_binv st r =
  let m = st.m and alpha = st.alpha and binv = st.binv in
  let ar = alpha.(r) in
  for i = 0 to m - 1 do
    let base = i * m in
    let br = Array.unsafe_get binv (base + r) in
    if br <> 0.0 then begin
      let t = br /. ar in
      for p = 0 to m - 1 do
        Array.unsafe_set binv (base + p)
          (Array.unsafe_get binv (base + p) -. (Array.unsafe_get alpha p *. t))
      done;
      Array.unsafe_set binv (base + r) t
    end
  done;
  st.updates <- st.updates + 1

let set_basic st r q =
  let leaving = st.head.(r) in
  st.pos.(leaving) <- -1;
  st.head.(r) <- q;
  st.pos.(q) <- r

(* Basic values from the nonbasic ones: z_B = -B⁻¹ (N z_N). *)
let compute_xb st =
  let m = st.m and w = st.work in
  Array.fill w 0 m 0.0;
  for j = 0 to st.n + m - 1 do
    if st.pos.(j) < 0 then begin
      let v = st.z.(j) in
      if v <> 0.0 then
        if j < st.n then
          for k = st.a.col_start.(j) to st.a.col_start.(j + 1) - 1 do
            let i = st.a.row_index.(k) in
            w.(i) <- w.(i) +. (v *. st.a.value.(k))
          done
        else w.(j - st.n) <- w.(j - st.n) -. v
    end
  done;
  for p = 0 to m - 1 do
    st.z.(st.head.(p)) <- 0.0
  done;
  for i = 0 to m - 1 do
    let wi = w.(i) in
    if wi <> 0.0 then begin
      let base = i * m in
      for p = 0 to m - 1 do
        let h = st.head.(p) in
        st.z.(h) <- st.z.(h) -. (st.binv.(base + p) *. wi)
      done
    end
  done

let set_nonbasic_values st =
  for j = 0 to st.n + st.m - 1 do
    if st.pos.(j) < 0 then st.z.(j) <- nonbasic_value st j
  done

(* A finite upper bound is the resting place of a nonbasic variable only
   when marked so; a variable with no finite lower bound but a finite
   upper one must rest there. *)
let normalize_upper st =
  for j = 0 to st.n + st.m - 1 do
    if st.hi.(j) = infinity then st.upper.(j) <- false
    else if st.lo.(j) = neg_infinity then st.upper.(j) <- true
  done

(* Rebuild B⁻¹ for the current [head] from scratch: start from the
   all-logical basis (B⁻¹ = -I) and pivot each wanted structural column
   into the position of an unwanted logical, choosing the largest pivot.
   A structural column that finds no acceptable pivot is dropped (left
   nonbasic at a bound) and the logical stays: the basis is repaired
   rather than singular. *)
let refactor st =
  let m = st.m and n = st.n in
  let want = Array.copy st.head in
  let keep_logical = Array.make m false in
  Array.iter (fun q -> if q >= n then keep_logical.(q - n) <- true) want;
  Array.fill st.binv 0 (m * m) 0.0;
  for i = 0 to m - 1 do
    st.binv.((i * m) + i) <- -1.0
  done;
  Array.fill st.pos 0 (n + m) (-1);
  for p = 0 to m - 1 do
    st.head.(p) <- n + p;
    st.pos.(n + p) <- p
  done;
  Array.iter
    (fun q ->
      if q < n then begin
        ftran st q;
        let r = ref (-1) and best = ref piv_tol in
        for p = 0 to m - 1 do
          let h = st.head.(p) in
          if h >= n && (not keep_logical.(h - n)) && Float.abs st.alpha.(p) > !best
          then begin
            best := Float.abs st.alpha.(p);
            r := p
          end
        done;
        if !r >= 0 then begin
          update_binv st !r;
          set_basic st !r q
        end
      end)
    want;
  st.updates <- 0;
  set_nonbasic_values st;
  compute_xb st

(* Simplex multipliers y = c_B B⁻¹, then reduced costs d_j = c_j - y·a_j
   of every nonbasic variable. *)
let compute_duals st =
  let m = st.m in
  Array.fill st.y 0 m 0.0;
  for p = 0 to m - 1 do
    let cb = st.cost.(st.head.(p)) in
    if cb <> 0.0 then
      for i = 0 to m - 1 do
        st.y.(i) <- st.y.(i) +. (cb *. st.binv.((i * m) + p))
      done
  done;
  for j = 0 to st.n + m - 1 do
    st.d.(j) <- (if st.pos.(j) >= 0 then 0.0 else st.cost.(j) -. dot_col st st.y j)
  done

(* --- feasibility tests ---------------------------------------------------- *)

(* Signed infeasibility of variable [j]: > 0 below its lower bound, < 0
   above its upper bound, 0 within tolerance. *)
let infeasibility st j =
  let v = st.z.(j) in
  if v < st.lo.(j) -. tol_p st st.lo.(j) then st.lo.(j) -. v
  else if v > st.hi.(j) +. tol_p st st.hi.(j) then st.hi.(j) -. v
  else 0.0

let primal_feasible st =
  let ok = ref true in
  for p = 0 to st.m - 1 do
    if infeasibility st st.head.(p) <> 0.0 then ok := false
  done;
  !ok

(* Dual feasibility of the nonbasic reduced costs. Boxed variables are
   moved to whichever bound their reduced cost favours, which never
   costs dual feasibility; returns [false] if some other variable has a
   reduced cost of the wrong sign. Basic values are recomputed when a
   boxed variable moved. *)
let make_dual_feasible st =
  let ok = ref true and moved = ref false in
  for j = 0 to st.n + st.m - 1 do
    if st.pos.(j) < 0 && not (fixed st j) then begin
      let d = st.d.(j) and tol = tol_d st j in
      let boxed = st.lo.(j) > neg_infinity && st.hi.(j) < infinity in
      if boxed then begin
        if d < -.tol && not st.upper.(j) then (st.upper.(j) <- true; moved := true)
        else if d > tol && st.upper.(j) then (st.upper.(j) <- false; moved := true)
      end
      else if st.upper.(j) then (if d > tol then ok := false)
      else if st.lo.(j) > neg_infinity then (if d < -.tol then ok := false)
      else if Float.abs d > tol then ok := false
    end
  done;
  if !moved then begin
    set_nonbasic_values st;
    compute_xb st
  end;
  !ok

(* --- primal simplex ------------------------------------------------------- *)

(* [Stuck]: no improving step, i.e. optimal, or infeasible in phase 1 *)
type run = Done | Stuck | Unbounded_ray | Limit

(* Phase-1 costs: -1 on basic variables below their lower bound, +1 on
   those above their upper bound, 0 elsewhere (the gradient of the sum of
   infeasibilities). Returns whether any basic variable is infeasible. *)
let set_phase1_costs st =
  Array.fill st.cost 0 (st.n + st.m) 0.0;
  let any = ref false in
  for p = 0 to st.m - 1 do
    let j = st.head.(p) in
    let s = infeasibility st j in
    if s > 0.0 then (st.cost.(j) <- -1.0; any := true)
    else if s < 0.0 then (st.cost.(j) <- 1.0; any := true)
  done;
  !any

(* Entering variable and direction (+1 up, -1 down): Dantzig's largest
   |d_j|, or the smallest eligible index under Bland's rule. *)
let primal_entering st ~bland =
  let best = ref 0.0 and q = ref (-1) and dir = ref 0.0 in
  (try
     for j = 0 to st.n + st.m - 1 do
       if st.pos.(j) < 0 && not (fixed st j) then begin
         let d = st.d.(j) and tol = tol_d st j in
         let free = (not st.upper.(j)) && st.lo.(j) = neg_infinity in
         let up = d < -.tol && not st.upper.(j) in
         let down = d > tol && (st.upper.(j) || free) in
         if (up || down) && Float.abs d > !best then begin
           best := Float.abs d;
           q := j;
           dir := if up then 1.0 else -1.0;
           if bland then raise Exit
         end
       end
     done
   with Exit -> ());
  (!q, !dir)

(* The bound a basic variable runs into when it moves at [rate] per unit
   step, or [nan] if none. In phase 1 an infeasible variable's first
   breakpoint is the bound it is violating: the sum of infeasibilities is
   linear only up to there. *)
let blocking_bound st ~phase1 j rate =
  let v = st.z.(j) in
  if rate < 0.0 then
    if phase1 && v > st.hi.(j) +. tol_p st st.hi.(j) then st.hi.(j)
    else if phase1 && v < st.lo.(j) -. tol_p st st.lo.(j) then nan
    else if st.lo.(j) > neg_infinity then st.lo.(j)
    else nan
  else if phase1 && v < st.lo.(j) -. tol_p st st.lo.(j) then st.lo.(j)
  else if phase1 && v > st.hi.(j) +. tol_p st st.hi.(j) then nan
  else if st.hi.(j) < infinity then st.hi.(j)
  else nan

(* Harris two-pass ratio test on [alpha] for entering [q] moving in
   [dir]. Returns [(r, theta, bound)]: [r >= 0] pivots position [r] out
   at [bound]; [r = -1] is a bound flip of [q]; [r = -2] unbounded. *)
let primal_ratio st ~phase1 q dir ~bland =
  let m = st.m in
  let theta_max = ref infinity in
  for p = 0 to m - 1 do
    let a = st.alpha.(p) in
    if Float.abs a > piv_tol then begin
      let j = st.head.(p) in
      let rate = -.dir *. a in
      let b = blocking_bound st ~phase1 j rate in
      if not (Float.is_nan b) then begin
        let t = (Float.abs (st.z.(j) -. b) +. tol_p st b) /. Float.abs rate in
        if t < !theta_max then theta_max := t
      end
    end
  done;
  let flip =
    if st.hi.(q) < infinity && st.lo.(q) > neg_infinity then st.hi.(q) -. st.lo.(q)
    else infinity
  in
  if !theta_max = infinity && flip = infinity then (-2, infinity, nan)
  else begin
    let r = ref (-1) and best = ref 0.0 and theta = ref infinity and bound = ref nan in
    for p = 0 to m - 1 do
      let a = st.alpha.(p) in
      if Float.abs a > piv_tol then begin
        let j = st.head.(p) in
        let rate = -.dir *. a in
        let b = blocking_bound st ~phase1 j rate in
        if not (Float.is_nan b) then begin
          let t = Float.max 0.0 ((b -. st.z.(j)) /. rate) in
          let better =
            if bland then
              t < !theta -. tol_p st b
              || (t <= !theta +. tol_p st b && (!r < 0 || j < st.head.(!r)))
            else Float.abs a > !best
          in
          if t <= !theta_max && better then begin
            r := p;
            best := Float.abs a;
            theta := t;
            bound := b
          end
        end
      end
    done;
    if flip <= !theta then (-1, flip, nan) else (!r, !theta, !bound)
  end

(* Move [q] by [dir * theta] and every basic variable along [-alpha].
   [theta] may be negative (a dual step can move [q] down). *)
let step st q dir theta =
  if theta <> 0.0 then begin
    st.z.(q) <- st.z.(q) +. (dir *. theta);
    for p = 0 to st.m - 1 do
      let a = st.alpha.(p) in
      if a <> 0.0 then begin
        let h = st.head.(p) in
        st.z.(h) <- st.z.(h) -. (dir *. theta *. a)
      end
    done
  end

let pivot_in st r q bound =
  let leaving = st.head.(r) in
  update_binv st r;
  set_basic st r q;
  st.z.(leaving) <- bound;
  st.upper.(leaving) <- bound = st.hi.(leaving) && bound < infinity

(* One primal simplex run. Phase 1 minimizes the sum of infeasibilities
   and stops as soon as the basis is feasible ([Done]); phase 2 optimizes
   [costs]. *)
let primal st ~phase1 ~costs ~max_iters =
  let degenerate_run = ref 0 in
  let rec go () =
    if st.iters >= max_iters then Limit
    else begin
      let infeasible =
        if phase1 then set_phase1_costs st
        else (Array.blit costs 0 st.cost 0 (st.n + st.m); false)
      in
      if phase1 && not infeasible then Done
      else begin
        compute_duals st;
        let bland = !degenerate_run > bland_after in
        let q, dir = primal_entering st ~bland in
        if q < 0 then (if phase1 then Stuck else Done)
        else begin
          ftran st q;
          let r, theta, bound = primal_ratio st ~phase1 q dir ~bland in
          if r = -2 then (if phase1 then Limit else Unbounded_ray)
          else begin
            st.iters <- st.iters + 1;
            if phase1 then st.phase1 <- st.phase1 + 1 else st.phase2 <- st.phase2 + 1;
            if theta <= tol_p st 0.0 then begin
              incr degenerate_run;
              st.degen <- st.degen + 1;
              if !degenerate_run = bland_after + 1 then st.bland <- st.bland + 1
            end
            else degenerate_run := 0;
            step st q dir theta;
            if r = -1 then begin
              st.upper.(q) <- not st.upper.(q);
              st.z.(q) <- nonbasic_value st q
            end
            else begin
              pivot_in st r q bound;
              if st.updates >= refactor_every then refactor st
            end;
            go ()
          end
        end
      end
    end
  in
  go ()

(* --- dual simplex --------------------------------------------------------- *)

(* Deterministic cost perturbation in the dual-feasible direction: it
   breaks the ties of a degenerate dual ratio test (every reduced cost of
   a feasibility LP is zero), which is what keeps the dual simplex from
   stalling. The perturbation is removed before the solve returns. *)
let perturb st =
  for j = 0 to st.n + st.m - 1 do
    if st.pos.(j) < 0 && not (fixed st j) then begin
      let u = Float.rem (float_of_int (j + 1) *. 0.6180339887498949) 1.0 in
      let e = 1e-7 *. (1.0 +. Float.abs st.cost.(j)) *. (1.0 +. u) in
      if st.upper.(j) then st.cost.(j) <- st.cost.(j) -. e
      else if st.lo.(j) > neg_infinity then st.cost.(j) <- st.cost.(j) +. e
    end
  done

(* Cost shifting against stalls: every nonbasic reduced cost that sits
   on zero (or a hair past it, as a Harris step can leave it) is moved a
   fresh random distance into its feasible side by shifting that
   variable's cost. Like [perturb], the shift disappears with the
   working costs before the solve returns. Returns whether anything
   moved. *)
let reshift st salt =
  let moved = ref false in
  for j = 0 to st.n + st.m - 1 do
    if st.pos.(j) < 0 && (not (fixed st j)) && (st.upper.(j) || st.lo.(j) > neg_infinity)
    then begin
      let feasible_side = if st.upper.(j) then -.st.d.(j) else st.d.(j) in
      if feasible_side <= tol_d st j then begin
        let u = Float.rem (float_of_int (j + 1 + salt) *. 0.6180339887498949) 1.0 in
        let e = 1e-7 *. (1.0 +. u) in
        let target = if st.upper.(j) then -.e else e in
        st.cost.(j) <- st.cost.(j) +. (target -. st.d.(j));
        st.d.(j) <- target;
        moved := true
      end
    end
  done;
  !moved

(* Leaving position: largest infeasibility, or the smallest infeasible
   basic index under Bland's rule. *)
let dual_leaving st ~bland =
  let r = ref (-1) and best = ref 0.0 in
  for p = 0 to st.m - 1 do
    let s = Float.abs (infeasibility st st.head.(p)) in
    if s > 0.0 then
      if bland then (if !r < 0 || st.head.(p) < st.head.(!r) then r := p)
      else if s > !best then (best := s; r := p)
  done;
  !r

(* Dual ratio test over the pivot row for a leaving variable that must
   rise ([s = 1]) or fall ([s = -1]). Harris two-pass with the largest
   |pivot| among the near-minimal ratios; -1 means the row proves the
   LP infeasible. *)
let dual_ratio st s ~bland =
  let eligible j =
    st.pos.(j) < 0 && (not (fixed st j))
    &&
    let a = s *. st.prow.(j) in
    Float.abs a > piv_tol
    && ((a < 0.0 && not st.upper.(j))
       || (a > 0.0 && (st.upper.(j) || st.lo.(j) = neg_infinity)))
  in
  (* how far d_j may move before it leaves its feasible side *)
  let room j =
    if st.upper.(j) then Float.max 0.0 (-.st.d.(j))
    else if st.lo.(j) > neg_infinity then Float.max 0.0 st.d.(j)
    else Float.abs st.d.(j)
  in
  let theta_max = ref infinity in
  for j = 0 to st.n + st.m - 1 do
    if eligible j then begin
      let t = (room j +. tol_d st j) /. Float.abs st.prow.(j) in
      if t < !theta_max then theta_max := t
    end
  done;
  let q = ref (-1) and best = ref 0.0 in
  for j = 0 to st.n + st.m - 1 do
    if eligible j then begin
      let t = room j /. Float.abs st.prow.(j) in
      if t <= !theta_max then
        if bland then (if !q < 0 then q := j)
        else if Float.abs st.prow.(j) > !best then (best := Float.abs st.prow.(j); q := j)
    end
  done;
  !q

(* [D_stalled]: the dual ran past its own budget without finishing.
   Shifted costs redefine the dual objective as the run goes, so a
   cycle stays possible; the caller then finishes with the primal
   simplex, whose Bland fallback terminates. *)
type dual_run = D_optimal | D_infeasible | D_limit | D_stalled

let dual st ~max_iters =
  let degenerate_run = ref 0 in
  let budget = st.iters + (10 * (st.m + st.n)) + 200 in
  let rec go ~verified =
    if st.iters >= max_iters then D_limit
    else if st.iters >= budget then D_stalled
    else begin
      let bland = !degenerate_run > bland_after in
      let r = dual_leaving st ~bland in
      if r < 0 then
        (* confirm against freshly computed basic values before stopping *)
        if verified then D_optimal else (compute_xb st; go ~verified:true)
      else begin
        let leaving = st.head.(r) in
        let below = infeasibility st leaving > 0.0 in
        let s = if below then 1.0 else -1.0 in
        let target = if below then st.lo.(leaving) else st.hi.(leaving) in
        btran_row st r;
        for j = 0 to st.n + st.m - 1 do
          st.prow.(j) <- (if st.pos.(j) < 0 then dot_col st st.rho j else 0.0)
        done;
        let q = dual_ratio st s ~bland in
        let degenerate q = q >= 0 && Float.abs (st.d.(q) /. st.prow.(q)) <= tol_d st q in
        let q = if degenerate q && reshift st st.iters then dual_ratio st s ~bland else q in
        if q < 0 then
          if verified then D_infeasible
          else (compute_xb st; go ~verified:true)
        else begin
          ftran st q;
          let ar = st.alpha.(r) in
          if Float.abs (ar -. st.prow.(q)) > 1e-7 *. (1.0 +. Float.abs ar) && st.updates > 0
          then begin
            (* B⁻¹ has drifted: rebuild it and retry *)
            refactor st;
            compute_duals st;
            go ~verified:false
          end
          else begin
            st.iters <- st.iters + 1;
            st.dual <- st.dual + 1;
            (* a Harris pick may carry a reduced cost a hair on the wrong
               side of zero; shift its cost to make it zero, so the step
               keeps every other reduced cost on its feasible side *)
            if
              if st.upper.(q) then st.d.(q) > 0.0
              else st.lo.(q) > neg_infinity && st.d.(q) < 0.0
            then begin
              st.cost.(q) <- st.cost.(q) -. st.d.(q);
              st.d.(q) <- 0.0
            end;
            let theta_d = st.d.(q) /. st.prow.(q) in
            if Float.abs theta_d <= tol_d st q then begin
              incr degenerate_run;
              st.degen <- st.degen + 1;
              if !degenerate_run = bland_after + 1 then st.bland <- st.bland + 1
            end
            else degenerate_run := 0;
            (* primal step: the leaving variable lands on [target] *)
            let delta = (st.z.(leaving) -. target) /. ar in
            step st q 1.0 delta;
            (* dual step *)
            for j = 0 to st.n + st.m - 1 do
              if st.pos.(j) < 0 then st.d.(j) <- st.d.(j) -. (theta_d *. st.prow.(j))
            done;
            pivot_in st r q target;
            st.d.(leaving) <- -.theta_d;
            st.d.(q) <- 0.0;
            if st.updates >= refactor_every then begin
              refactor st;
              compute_duals st
            end;
            go ~verified:false
          end
        end
      end
    end
  in
  go ~verified:false

(* --- solve ----------------------------------------------------------------- *)

let usable ~m ~n (b : basis) =
  Array.length b.head = m
  && Array.length b.upper = n + m
  &&
  let seen = Array.make (n + m) false in
  Array.for_all
    (fun h -> h >= 0 && h < n + m && (not seen.(h)) && (seen.(h) <- true; true))
    b.head

(* Crash the all-logical basis: a violated row whose logical is fixed
   (an equality) and that holds a singleton structural column takes that
   column into the basis instead, when the value the row needs from it is
   within its bounds. The first such column per row wins; B stays
   diagonal. On a standard-form program with slack columns this starts
   from the slack basis. *)
let crash st =
  let n = st.n and m = st.m and a = st.a in
  for j = 0 to n - 1 do
    let k = a.col_start.(j) in
    if a.col_start.(j + 1) - k = 1 && not (fixed st j) then begin
      let i = a.row_index.(k) and v = a.value.(k) in
      let s = n + i in
      if st.pos.(s) = i && fixed st s && infeasibility st s <> 0.0 then begin
        let need = (st.lo.(s) -. (st.z.(s) -. (v *. st.z.(j)))) /. v in
        if need >= st.lo.(j) -. tol_p st st.lo.(j) && need <= st.hi.(j) +. tol_p st st.hi.(j)
        then begin
          st.binv.((i * m) + i) <- 1.0 /. v;
          set_basic st i j;
          st.z.(j) <- need;
          st.z.(s) <- st.lo.(s)
        end
      end
    end
  done

(* Install the starting basis: the caller's when it fits (reusing its
   B⁻¹ when it was computed on this very matrix), else the all-logical
   basis, whose inverse is -I. *)
let start_basis st (basis : basis option) ~factored =
  let m = st.m and n = st.n in
  match basis with
  | Some b ->
      Array.blit b.upper 0 st.upper 0 (n + m);
      Array.blit b.head 0 st.head 0 m;
      Array.iteri (fun p h -> st.pos.(h) <- p) st.head;
      normalize_upper st;
      if factored then (set_nonbasic_values st; compute_xb st) else refactor st
  | None ->
      for i = 0 to m - 1 do
        st.binv.((i * m) + i) <- -1.0;
        st.head.(i) <- n + i;
        st.pos.(n + i) <- i
      done;
      normalize_upper st;
      set_nonbasic_values st;
      compute_xb st;
      crash st

let solve_bounded ?max_iters ?(eps = 1e-9) ?basis a ~c ~lb ~ub ~row_lo ~row_hi =
  let m = a.rows and n = a.cols in
  if Array.length c <> n || Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Simplex.solve_bounded: c, lb and ub need one entry per column";
  if Array.length row_lo <> m || Array.length row_hi <> m then
    invalid_arg "Simplex.solve_bounded: row bounds need one entry per row";
  let max_iters = match max_iters with Some v -> v | None -> 200 * (m + n + 1) in
  let nt = n + m in
  let basis = match basis with Some b when usable ~m ~n b -> Some b | _ -> None in
  (* take over the caller's inverse when it belongs to this matrix *)
  let factored, binv =
    match basis with
    | Some (b : basis) when b.owner == a && b.binv <> None ->
        let binv = Option.get b.binv in
        b.binv <- None;
        (true, binv)
    | _ -> (false, Array.make (m * m) 0.0)
  in
  let st =
    {
      m;
      n;
      a;
      lo = Array.append lb row_lo;
      hi = Array.append ub row_hi;
      cost = Array.make nt 0.0;
      head = Array.make m 0;
      pos = Array.make nt (-1);
      upper = Array.make nt false;
      z = Array.make nt 0.0;
      d = Array.make nt 0.0;
      binv;
      alpha = Array.make m 0.0;
      rho = Array.make m 0.0;
      prow = Array.make nt 0.0;
      y = Array.make m 0.0;
      work = Array.make m 0.0;
      eps;
      updates = 0;
      iters = 0;
      phase1 = 0;
      phase2 = 0;
      dual = 0;
      degen = 0;
      bland = 0;
    }
  in
  let costs = Array.append c (Array.make m 0.0) in
  let warm = basis <> None in
  Obs.Span.phase
    ~detail:(Printf.sprintf "rows=%d cols=%d" m n)
    ~result_detail:(fun _ -> Printf.sprintf "rows=%d cols=%d iters=%d" m n st.iters)
    "lp.simplex.solve"
  @@ fun () ->
  let finish status =
    Obs.Counter.incr c_solves;
    Obs.Counter.add c_phase1_iters st.phase1;
    Obs.Counter.add c_phase2_iters st.phase2;
    Obs.Counter.add c_dual_iters st.dual;
    if warm then Obs.Counter.incr c_warm_starts;
    Obs.Counter.add c_degenerate st.degen;
    Obs.Counter.add c_bland st.bland;
    let x = Array.sub st.z 0 n in
    let objective = ref 0.0 in
    Array.iteri (fun j v -> if c.(j) <> 0.0 then objective := !objective +. (c.(j) *. v)) x;
    let basis =
      match status with
      | Optimal | Infeasible ->
          Some { owner = a; head = st.head; upper = st.upper; binv = Some st.binv }
      | Unbounded | Iteration_limit -> None
    in
    { status; x; objective = !objective; basis }
  in
  let phase2 () =
    match primal st ~phase1:false ~costs ~max_iters with
    | Done | Stuck -> finish Optimal
    | Unbounded_ray -> finish Unbounded
    | Limit -> finish Iteration_limit
  in
  let from_phase1 () =
    compute_xb st;
    match primal st ~phase1:true ~costs ~max_iters with
    | Done -> phase2 ()
    | Stuck ->
        compute_xb st;
        if primal_feasible st then phase2 () else finish Infeasible
    | Unbounded_ray | Limit -> finish Iteration_limit
  in
  start_basis st basis ~factored;
  if Array.exists2 (fun l h -> l > h) st.lo st.hi then finish Infeasible
  else if primal_feasible st then phase2 ()
  else begin
    Array.blit costs 0 st.cost 0 nt;
    compute_duals st;
    if make_dual_feasible st then begin
      perturb st;
      compute_duals st;
      match dual st ~max_iters with
      | D_optimal -> phase2 ()
      | D_infeasible -> finish Infeasible
      | D_limit -> finish Iteration_limit
      | D_stalled -> from_phase1 ()
    end
    else from_phase1 ()
  end

(* --- dense standard-form front end ----------------------------------------- *)

type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let solve ?max_iters ?eps ~a ~b ~c () =
  let m = Array.length a and n = Array.length c in
  if Array.length b <> m then invalid_arg "Simplex.solve: |b| must equal rows";
  let mat = matrix_of_dense ~cols:n a in
  let r =
    solve_bounded ?max_iters ?eps mat ~c ~lb:(Array.make n 0.0)
      ~ub:(Array.make n infinity) ~row_lo:b ~row_hi:b
  in
  match r.status with
  | Optimal ->
      let head = match r.basis with Some bs -> Array.copy bs.head | None -> [||] in
      Optimal { objective = r.objective; x = r.x; basis = head }
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Iteration_limit -> Iteration_limit
