(** Clock-period feasibility and minimum-period retiming.

    A period [T] is achievable iff the difference-constraint system
    "edge constraints + extra + every pair with [D(u,v) > T]" is
    feasible.  Min-period retiming searches the candidate periods —
    the path delays between the cycle-ratio lower bound and [T_init] —
    for the smallest achievable one, the paper's [T_min]; [T_init] is
    simply {!Graph.clock_period} of the unretimed graph.

    The search is sort-free and incremental: each probe is the median
    of the remaining candidate window, found by selection; the probe
    systems live in one set of constraint arrays that only grows, and
    each Bellman-Ford probe is warm-started from the last feasible
    probe.  It returns the same [T_min] and the same labels as a
    binary search over the sorted distinct delays with cold probes. *)

val feasible :
  ?extra:Lacr_mcmf.Difference.constr list ->
  Graph.t ->
  Paths.wd ->
  period:float ->
  int array option
(** A legal retiming labelling achieving the period ([r(host)]
    normalized to 0), or [None].  One cold Bellman-Ford probe over
    {!Constraints.compile}. *)

val cycle_ratio_lower_bound : Graph.t -> float
(** [max(max_v d(v), max_C d(C)/w(C))] — no retiming can clock below
    it.  Computed by Lawler's negative-cycle test; used to prune the
    min-period search (exposed for tests and benches). *)

type min_period_result = {
  period : float;
  labels : int array;  (** witness retiming, [r(host) = 0] *)
}

val min_period :
  ?extra:Lacr_mcmf.Difference.constr list ->
  ?trace:Lacr_obs.Trace.ctx ->
  Graph.t ->
  Paths.wd ->
  min_period_result
(** Smallest achievable clock period over the candidate delays
    [bound - 1e-9 <= D <= T_init + 1e-9] of the backend's pairs
    ({!Paths.iter_frontier} when streamed, {!Paths.iter_pairs} when
    dense), with [labels] equal to [feasible ~extra g wd ~period]'s.
    Falls back to [T_init] with the identity retiming when no
    candidate exists.

    Each probe selects the median of the candidate window in place;
    a feasible probe keeps the values strictly below it, an infeasible
    one those strictly above.  Pairs above the last feasible probe stay
    in the constraint arrays for every later probe, pairs at or below
    an infeasible probe are dropped, and the rest are partitioned per
    probe, so a probe allocates nothing beyond Bellman-Ford's O(n)
    vectors and never rescans the frontier.

    [trace] (default disabled) adds the [feasibility.candidates]
    (window size), [feasibility.probes] and [feasibility.relax_rounds]
    (Bellman-Ford rounds, summed over probes) counters; the search is
    sequential, so they are identical for every pool size.

    With the sanitizer enabled the result goes through
    {!check_witness}. *)

val check_witness : Graph.t -> period:float -> int array -> unit
(** Checks a min-period witness against the graph, not against a
    constraint system: the labels must be a legal retiming
    ({!Graph.is_legal}) under which {!Timing.analyze} meets [period].
    @raise Lacr_util.Sanitize.Violation [retime.min_period_witness]
    otherwise. *)
