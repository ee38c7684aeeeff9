(** Linear-program model builder on top of {!Simplex}.

    Variables carry bounds and objective coefficients; constraints are
    linear with [<=], [>=] or [=]. The builder lowers the constraints to
    the engine's sparse column form — one column per variable, one row
    per constraint, bounds passed natively — and keeps that lowering
    between solves until the model grows, so re-solving with other
    bounds or from a previous basis costs no rebuild. Solving mutates
    that cache: a model must not be solved from two domains at once. *)

type t
(** A mutable model under construction. *)

type var
(** A variable handle, valid only for the model that created it. *)

type relation = Le | Ge | Eq

val create : unit -> t

val add_var : ?lb:float -> ?ub:float -> ?obj:float -> t -> string -> var
(** [add_var t name] adds a variable. Defaults: [lb = 0.], [ub = infinity],
    [obj = 0.]. [lb = neg_infinity] makes the variable free. Raises
    [Invalid_argument] if [lb > ub] or a bound is NaN. *)

val add_constraint : t -> (float * var) list -> relation -> float -> unit
(** [add_constraint t terms rel rhs] adds [Σ coeff·var rel rhs]. Repeated
    variables in [terms] are summed. *)

val num_vars : t -> int
val num_constraints : t -> int
val var_name : t -> var -> string

val var_index : var -> int
(** Creation-order index of a variable (the index into {!values}). *)

val var_bounds : t -> var -> float * float

type solution

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Aborted  (** iteration limit / numerical breakdown *)

type basis = Simplex.basis
(** A warm start: the final basis of an earlier solve of the same model. *)

val solve :
  ?maximize:bool ->
  ?eps:float ->
  ?overrides:(var * (float * float)) list ->
  t ->
  result
(** Solve the model (default: minimize). The model may be solved repeatedly
    and extended between solves. [overrides] temporarily tightens variable
    bounds for this solve only — [(v, (lb, ub))] intersects [v]'s bounds
    with [[lb, ub]] — which is what branch and bound ({!Mip}) uses to fix
    variables without mutating the model. Contradictory overrides yield
    [Infeasible]. The solve is cold; {!solve_warm} restarts from an
    earlier solve's basis. *)

val solve_warm :
  ?maximize:bool ->
  ?eps:float ->
  ?overrides:(var * (float * float)) list ->
  ?basis:basis ->
  t ->
  result * basis option
(** {!solve}, also returning the final basis on [Optimal] and
    [Infeasible] (for contradictory overrides, the [basis] passed in).
    Feeding it to the next solve of the same model — typically with
    other [overrides] — restarts from that basis and its factorization;
    with a zero objective the restart costs dual pivots only. *)

val objective_value : solution -> float

val value : solution -> var -> float
(** Value of a variable in the solution, clamped to its bounds to absorb
    simplex round-off. *)

val values : solution -> float array
(** All variable values, indexed by creation order. *)

val is_vertex : solution -> bool
(** Whether the solution is basic by its final basis: every variable
    outside the basis sits exactly on one of its (effective) bounds. True
    for every optimum of a model without free variables; a free variable
    left nonbasic at 0 makes it [false]. The pseudo-forest rounding of
    Lemma 3.8 needs such extreme points. *)

val pp_solution : t -> Format.formatter -> solution -> unit
