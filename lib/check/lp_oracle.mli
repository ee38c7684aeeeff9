(** Differential oracle for the LP engine.

    Random small LPs — general ones (mixed bounds including free and
    fixed variables, [<=]/[>=]/[=] rows, zero or nonzero objectives,
    minimize or maximize) and ILP-UM-shaped feasibility chains — are
    solved by {!Lp} and by an independent reference engine the caller
    supplies (the tests pass the dense two-phase tableau, which no
    production code links). Each case is solved cold, then re-solved
    warm from the previous final basis after a few random bound
    tightenings and loosenings, as the binary-search probe chain of
    {!Algos.Lp_um} does.

    Every solve is checked for:
    - [verdict]: optimal / infeasible / unbounded agrees with the
      reference (a reference that gives up is skipped);
    - [objective]: equal to the reference's within {!Violation.slack};
    - [rows] and [bounds]: the returned point satisfies every row and
      every effective bound;
    - [vertex]: without free variables, at most [rows] variables lie
      strictly inside their bounds (the extreme-point property Lemma
      3.8's pseudo-forest rounding relies on), and {!Lp.is_vertex}
      holds;
    - [warm]: a warm re-solve reaches the verdict and objective of a cold
      solve of the same LP.

    All numbers are small integers, so verdicts are not decided by
    round-off. Cases are reproducible from [(seed, case index)]. *)

type problem = {
  lb : float array;
  ub : float array;
  obj : float array;
  maximize : bool;
  rows : (float array * Lp.relation * float) array;
      (** dense coefficients over all variables, relation, right-hand side *)
}

type verdict = Optimal of float | Infeasible | Unbounded | Unknown

type reference = problem -> verdict

val check_case : reference:reference -> Workloads.Rng.t -> Violation.t list
(** Generate one LP, run its cold solve and warm re-solve chain, and
    return every broken check. *)

type summary = { cases : int; solves : int; failures : (int * Violation.t list) list }

val run : reference:reference -> seed:int -> cases:int -> summary
(** [cases] independent cases from per-case streams split off [seed];
    [failures] pairs a case index with its violations. *)
