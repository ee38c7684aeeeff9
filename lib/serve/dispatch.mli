(** Deadline-aware solver selection over the algorithm portfolio.

    A request names a solver (or [auto]) and optionally a time budget in
    milliseconds. Dispatch always computes the near-linear fast path first
    (setup-aware list scheduling, plus the LPT variants where the
    environment admits them), then — budget permitting — runs the
    intended heavier solver and returns whichever schedule is better. If
    the remaining budget is below the heavy solver's minimum useful
    runtime by the time it would start (it could then only blow the
    deadline, not meet it), it is skipped and the fast-path result is
    returned with [degraded = true]; for the exact
    branch-and-bound solver the remaining budget additionally scales the
    node limit.

    Pre-emptive shedding: a [pressure] callback is consulted before the
    heavy tier runs; under pressure the heavy solver is shed — even with
    budget to spare — and the fast-path result is returned degraded,
    bumping [serve.dispatch.shed] instead of [serve.dispatch.degraded].
    The server passes none: its transport sheds at admission instead
    ({!Mux.admission}), by rewriting the deadline to 0.

    Counters: [serve.dispatch.degraded], [serve.dispatch.heavy_runs],
    [serve.dispatch.fast_only], [serve.dispatch.shed]. *)

type outcome = {
  result : Algos.Common.result;
  solver : string;  (** the solver that produced [result] *)
  degraded : bool;
      (** true iff the heavy solver was skipped and the fast path
          answered — because the deadline left no useful budget, or
          because [pressure] shed it *)
}

val solvers : string list
(** Accepted solver hints: [auto], [greedy], [lpt], [portfolio],
    [exact]. *)

val solve :
  ?deadline_ms:float -> ?hint:string -> ?seed:int ->
  ?pressure:(unit -> bool) -> Core.Instance.t ->
  (outcome, string) result
(** [pressure] defaults to [fun () -> false] (no admission control).
    [Error] covers unknown hints, hints inapplicable to the instance's
    environment, and instances with a nowhere-eligible job — all the
    cases the server must answer with a structured error response. *)
