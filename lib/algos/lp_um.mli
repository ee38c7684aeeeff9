(** The LP relaxation of ILP-UM (Section 3, constraints (1)–(5)).

    For a makespan guess [T]:

    - [x_ij >= 0] for eligible pairs with [p_ij <= T]  (constraint (5))
    - [y_ik ∈ [0,1]] for classes with [s_ik <= T]
    - [Σ_j x_ij p_ij + Σ_k y_ik s_ik <= T]  per machine  (1)
    - [Σ_i x_ij = 1] per job  (2)
    - [y_i,k_j >= x_ij] per eligible pair  (4)

    Feasibility of this LP at [T = OPT] is implied by any optimal integral
    schedule, so the smallest feasible [T] lower-bounds the optimum.

    The LP is built once per instance over every pair with finite times,
    with [T] a variable: the load rows read [Σ p x + Σ s y - T <= 0], and
    a guess fixes [T] and sets [ub = 0] on the pairs and setups it
    filters out. Only bounds change between guesses, so {!lower_bound}
    re-solves the same model, each probe starting from the previous
    probe's final basis (dual pivots only: the objective is zero). *)

type fractional = {
  makespan : float;  (** the guess [T] this solution is feasible for *)
  x : float array array;  (** [x.(i).(j)], machine-major; 0 for ineligible *)
  y : float array array;  (** [y.(i).(k)] *)
}

val feasible : Core.Instance.t -> makespan:float -> fractional option
(** Solve the relaxation at a fixed guess. [None] = LP infeasible, hence no
    schedule with makespan [<= makespan] exists. *)

type bound = {
  lower : float;
      (** certified lower bound on the optimal makespan: the largest probe
          that was LP-infeasible (or the combinatorial bound if every probe
          was feasible) *)
  solution : fractional;
      (** fractional solution at the smallest feasible probe *)
  probes : int;  (** LP solves spent *)
}

val lower_bound : ?rel_tol:float -> Core.Instance.t -> bound
(** Binary search for the LP threshold. [rel_tol] defaults to 0.02, i.e.
    [solution.makespan <= (1 + rel_tol) · lower] up to the combinatorial
    bracket. Raises [Invalid_argument] if some job is eligible nowhere. *)
