(** Systems of difference constraints [x(a) - x(b) <= c].

    Three services:
    - {!feasible}: Bellman-Ford feasibility / witness assignment, used
      by the clock-period feasibility test of min-period retiming;
    - {!optimize}: minimize a linear objective over the system by LP
      duality through {!Mcmf}, used by one-shot min-area retiming;
    - {!compile} / {!reoptimize}: the successive-instance form — check
      feasibility and build the flow network {e once}, then optimize a
      series of objectives over the same constraints with a
      warm-started solver.  This is the engine of the LAC re-weighting
      loop, where the constraint system is fixed for the whole run and
      only the tile-weighted objective changes per round.

    Constraint right-hand sides are integers (flip-flop counts);
    objective coefficients are reals (tile-weighted areas). *)

type constr = { a : int; b : int; bound : int }
(** The constraint [x(a) - x(b) <= bound]. *)

val feasible : n:int -> constr list -> int array option
(** [feasible ~n cs] returns a satisfying integer assignment (the
    Bellman-Ford shortest-path witness, each value in
    [\[-n*max_bound, 0\]]) or [None] when the system contains a
    negative cycle. *)

val feasible_arrays :
  ?init:int array ->
  ?rounds:int ref ->
  n:int ->
  a:int array ->
  b:int array ->
  bound:int array ->
  m:int ->
  unit ->
  int array option
(** Allocation-light variant of {!feasible} over parallel arrays (the
    first [m] entries are the system); used by the min-period search,
    whose probes carry hundreds of thousands of constraints.

    [init] (default all zeros, not mutated) is the start vector.  Pass
    the raw result of an earlier call on a {e subsystem} of this one
    (the same constraints with some removed) and the result is exactly
    the cold one — the same vector, or [None] — usually after fewer
    rounds.  Any other start vector voids that guarantee.

    The predecessor graph is tested for a cycle after every round
    from the second (O(n) per round against the round's O(m)); a
    predecessor cycle is a negative constraint cycle whatever the
    start vector, so an infeasible system is rejected a few rounds
    after its cycle first relaxes, not after [n] rounds.

    [rounds], when given, is incremented by the number of relaxation
    rounds this call ran. *)

type objective_error =
  | Infeasible_constraints
  | Unbounded_objective

(** {1 Compiled successive-instance API} *)

type instance
(** A feasible constraint system compiled to flat arrays plus a
    reusable min-cost-flow network.  Feasibility is established once
    at compile time; every {!reoptimize} skips the redundant
    Bellman-Ford probe the one-shot path used to pay per solve. *)

val compile : n:int -> ?guard:int -> constr list -> (instance, objective_error) result
(** Flatten, prove feasibility (or return [Infeasible_constraints])
    and build the flow network.  [guard] as in {!optimize}. *)

val compile_arrays :
  n:int ->
  ?guard:int ->
  a:int array ->
  b:int array ->
  bound:int array ->
  int ->
  (instance, objective_error) result
(** [compile_arrays ~n ~a ~b ~bound m] is {!compile} over parallel
    arrays (the first [m] entries are the system) — the zero-list
    entry point used by the flat constraint pipeline.  The arrays are
    borrowed, not copied: callers must not mutate them for the
    lifetime of the instance. *)

val reoptimize :
  ?warm:bool ->
  ?trace:Lacr_obs.Trace.ctx ->
  instance ->
  objective:float array ->
  (int array, objective_error) result
(** Minimize [sum objective.(v) * x(v)] over the compiled system,
    returning an optimal integral assignment normalized so that
    [x(0) = 0].  [warm] (default [true]) reuses the previous round's
    potentials when they are still dual-feasible — always the case
    here, because the compiled arc costs never change.  Warm and cold
    solves return bit-identical assignments ({!Mcmf} canonicalizes the
    potentials). *)

val solver_stats : instance -> Mcmf.stats
(** Flow-solver counters of the last {!reoptimize}. *)

val check_instance : instance -> int array -> bool
(** {!check} over the compiled flat arrays — no list re-walking. *)

(** {1 One-shot API} *)

val optimize :
  n:int -> objective:float array -> ?guard:int -> constr list -> (int array, objective_error) result
(** [optimize ~n ~objective cs] minimizes [sum objective.(v) * x(v)]
    subject to [cs], returning an optimal integral assignment
    normalized so that [x(0) = 0].  Equivalent to {!compile} followed
    by one cold {!reoptimize}.

    [guard] (default [4 * n + 8]) adds box constraints
    [|x(v) - x(0)| <= guard] so the LP is never unbounded in a
    direction the caller does not care about; {!Unbounded_objective} is
    reported only if an optimum pins against the guard, which callers
    treat as a modelling error. *)

val check : constr list -> int array -> bool
(** [check cs x] verifies every constraint (used by tests and by the
    retiming validator). *)

val check_arrays :
  a:int array -> b:int array -> bound:int array -> m:int -> int array -> bool
(** {!check} over parallel arrays (first [m] entries). *)
