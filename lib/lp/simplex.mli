(** Bounded-variable simplex over sparse columns: the one LP engine.

    Solves [min c·x] subject to [row_lo <= A x <= row_hi] and
    [lb <= x <= ub], where any bound may be infinite (a free variable
    has both infinite; an equality row has [row_lo = row_hi]). Bounds
    are native: a boxed variable costs no extra row. Each row [i] gets a
    logical variable [s_i] (column [-e_i], bounds [[row_lo_i, row_hi_i]])
    so the system reads [A x - s = 0], and a basis is any [rows] of the
    [cols + rows] variables; the others rest at one of their bounds.

    The engine keeps an explicit basis inverse, updated by one eta
    product per pivot and rebuilt from scratch every 1000 updates or when
    a pivot row and its column disagree. A solve starts from

    - the caller's basis ([?basis]), reusing its inverse when it was
      computed on the same {!matrix} value; otherwise
    - the all-logical basis, which needs no artificial variable: every
      row whose logical lies within its bounds is already feasible, and
      only the others (for example equality rows with a nonzero right-hand
      side) have to be repaired. A violated equality row that holds a
      singleton column (a slack of a standard-form program) starts with
      that column basic instead.

    From there:

    - a primal-feasible start runs primal simplex (phase 2);
    - a dual-feasible start runs dual simplex — always the case for a
      zero objective, so a chain of feasibility LPs that differ only in
      bounds costs dual pivots only, and a dual ray proves infeasibility;
      the dual ratio test breaks ties on a deterministic cost perturbation,
      renewed by cost shifting whenever a step would be degenerate, and
      removed (with a primal clean-up if needed) before returning;
    - anything else runs primal phase 1 (minimize the sum of
      infeasibilities) and then phase 2.

    Pricing is Dantzig's rule with Harris' two-pass ratio test, switching
    to Bland's rule after a run of degenerate pivots. Optimal solutions
    are basic — every nonbasic variable sits at a bound — i.e. vertices
    of the polyhedron when no variable is free, a property the
    pseudo-forest rounding of Section 3.3 relies on.

    Observability: counters [lp.simplex.solves], [phase1_iters] and
    [phase2_iters] (primal pivots and bound flips), [dual_iters],
    [warm_starts] (solves started from a caller's basis),
    [degenerate_pivots] and [bland_switches]; each solve is one
    [lp.simplex.solve] phase with detail [rows= cols= iters=]. *)

type matrix
(** A constraint matrix in compressed sparse columns. Immutable. *)

val matrix_of_columns : rows:int -> (int * float) list array -> matrix
(** [matrix_of_columns ~rows cols]: column [j] holds the [(row, value)]
    entries of [cols.(j)]; repeated rows are summed, zeros dropped.
    Raises [Invalid_argument] on a row outside [[0, rows)]. *)

type basis
(** A warm-start handle: the basic variables, the bound each nonbasic
    variable rests at, and the basis inverse. A solve that starts from a
    basis takes its inverse over, so handing the same basis to a second
    solve still works but pays for a refactorization. *)

val basic_columns : basis -> int array
(** The basic variable of each basis position (values [>= cols] are row
    logicals: [cols + i] for row [i]). *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type result = {
  status : status;
  x : float array;  (** structural values; meaningful when [Optimal] *)
  objective : float;  (** [c·x] *)
  basis : basis option;
      (** the final basis on [Optimal] and [Infeasible] (after a dual ray,
          a basis that is still dual feasible and a good start for a
          looser problem), [None] otherwise *)
}

val solve_bounded :
  ?max_iters:int ->
  ?eps:float ->
  ?basis:basis ->
  matrix ->
  c:float array ->
  lb:float array ->
  ub:float array ->
  row_lo:float array ->
  row_hi:float array ->
  result
(** [eps] (default [1e-9]) is the relative optimality tolerance; primal
    feasibility is judged at [100 * eps], since basic values carry the
    round-off of the updates since the last refactorization. [max_iters] (default [200 * (rows + cols + 1)]) caps the
    pivots and bound flips of all phases together. A basis of the wrong
    shape is ignored (cold start). Raises [Invalid_argument] on length
    mismatches. *)

(** {1 Dense standard form} *)

type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
      (** [basis] holds the basic variable of each basis position
          (values [>= n] are row logicals). *)
  | Infeasible
  | Unbounded
  | Iteration_limit

val solve :
  ?max_iters:int ->
  ?eps:float ->
  a:float array array ->
  b:float array ->
  c:float array ->
  unit ->
  outcome
(** [solve ~a ~b ~c ()] minimizes [c·x] subject to [A x = b], [x >= 0]
    ([b] of any sign) through {!solve_bounded}. [a] has shape [m×n], [b]
    length [m], [c] length [n]; input arrays are not modified. [max_iters]
    defaults to [200 * (m + n + 1)]. Raises [Invalid_argument] on shape
    mismatches. *)
