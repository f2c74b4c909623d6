let normalize_to_host g labels =
  let base = labels.(Graph.host g) in
  Array.map (fun l -> l - base) labels

let feasible ?(extra = []) g wd ~period =
  let compiled = Constraints.compile ~extra g wd ~period in
  match
    Lacr_mcmf.Difference.feasible_arrays ~n:(Graph.num_vertices g) ~a:compiled.Constraints.ca
      ~b:compiled.Constraints.cb ~bound:compiled.Constraints.cbound ~m:compiled.Constraints.m ()
  with
  | None -> None
  | Some labels -> Some (normalize_to_host g labels)

type min_period_result = { period : float; labels : int array }

(* Lower bound on any achievable period: the maximum cycle ratio and
   the largest single vertex delay.  The implementation lives in
   [Paths] (it doubles as the streamed frontier's retention
   threshold); re-exported here because min-period callers know it as
   part of the feasibility API. *)
let cycle_ratio_lower_bound = Paths.cycle_ratio_lower_bound

let epsilon = 1e-9

(* Hoare's FIND: permute [a.(0) .. a.(len - 1)] so that [a.(k)] holds
   the value of rank [k], with no larger value before it and no
   smaller one after it.  Expected linear time; the pivot is the
   current [a.(k)], so the permutation is deterministic. *)
let select (a : float array) len k =
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let pivot = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while pivot < a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else hi := !lo
  done

(* Witness check under the sanitizer, against the graph rather than
   the constraint system that produced the labels. *)
let check_witness g ~period labels =
  if not (Graph.is_legal g labels) then
    Lacr_util.Sanitize.fail ~invariant:"retime.min_period_witness"
      (Printf.sprintf "labels are not a legal retiming (period %g)" period);
  match Timing.analyze ~labels g ~period with
  | Error msg -> Lacr_util.Sanitize.fail ~invariant:"retime.min_period_witness" msg
  | Ok t ->
    if not (Timing.meets_period t) then
      Lacr_util.Sanitize.fail ~invariant:"retime.min_period_witness"
        (Printf.sprintf "retimed graph misses period %g (worst slack %g)" period
           (Timing.worst_slack t))

(* The search over candidate periods.  A probe at [x] asks whether the
   system "edges + extra + every pair with D > x + epsilon" is
   feasible; that system only grows as [x] falls, so feasibility is
   monotone in [x] and the answer is the smallest feasible candidate,
   however the probes are ordered.

   Candidates are capped at the initial clock period: the identity
   retiming satisfies every constraint there (any pair violating a
   period at or above the longest combinational path has W >= 1), so
   the minimal feasible candidate never exceeds it, and the clock
   period is itself a D value of some zero-weight pair, so the capped
   window is never empty when the full one is not.  The cap is also
   what lets the streamed backend dominance-reduce pairs beyond the
   window (see Paths).

   Each probe takes the median of the remaining candidate window by
   selection (no sort), and the window keeps only the values strictly
   below a feasible probe or strictly above an infeasible one.  The
   constraint arrays hold, in order, the header (edges, then extra),
   the pairs in every later system (D above the last feasible probe,
   or above every candidate) and the pending pairs.  A probe
   partitions the pending pairs, putting those it includes first, and
   runs on that prefix.  If it is feasible they join the permanent
   prefix; if not, the pending pairs it left out can never be in a
   later system and are dropped.  Every probe system contains the last
   feasible probe's system, so Bellman-Ford starts from that probe's
   raw distances and reaches exactly the cold fixpoint (see
   [Difference.feasible_arrays]): the witness is the labelling of a
   cold probe at the answer. *)
let min_period ?(extra = []) ?(trace = Lacr_obs.Trace.disabled) g wd =
  (* The streamed frontier already paid for the bound (it is its
     retention threshold); recomputing it would repeat a 30-probe
     Bellman-Ford bisection at every call. *)
  let bound, iter =
    match wd with
    | Paths.Streamed fr -> (fr.Paths.fbound, Paths.iter_frontier wd)
    | Paths.Dense _ -> (cycle_ratio_lower_bound g, Paths.iter_pairs wd)
  in
  let n = Graph.num_vertices g in
  let t_init = Graph.clock_period g in
  let lo_cut = bound -. 1e-9 and hi_cut = t_init +. 1e-9 in
  let is_candidate d = d >= lo_cut && d <= hi_cut in
  (* Every probe [x] lies in [lo_cut, hi_cut], so a pair with
     D > hi_cut + epsilon is in every probe system and one with
     D <= lo_cut + epsilon in none; the rest are pending.  Self pairs
     other than the single-vertex path bound nothing. *)
  let always u v w d = (u <> v || w = 0) && d > hi_cut +. epsilon in
  let pending u v w d = (u <> v || w = 0) && d > lo_cut +. epsilon && d <= hi_cut +. epsilon in
  let n_cand = ref 0 and n_always = ref 0 and n_pending = ref 0 in
  iter (fun u v w d ->
      if is_candidate d then incr n_cand;
      if always u v w d then incr n_always else if pending u v w d then incr n_pending);
  let edges = Graph.edges g in
  let n_header = Array.length edges + List.length extra in
  (* Slots [0, !prefix) are in every later probe system; the pending
     pairs live in [!prefix, !pending_end), with [pd.(i - base)] the
     delay of slot [i]. *)
  let base = n_header + !n_always in
  let prefix = ref base and pending_end = ref (base + !n_pending) in
  let ca = Array.make !pending_end 0
  and cb = Array.make !pending_end 0
  and cbound = Array.make !pending_end 0 in
  let pd = Array.make !n_pending 0.0 in
  let cand = Array.make !n_cand 0.0 in
  let put i a b c =
    ca.(i) <- a;
    cb.(i) <- b;
    cbound.(i) <- c
  in
  Array.iteri (fun i (e : Graph.edge) -> put i e.Graph.src e.Graph.dst e.Graph.weight) edges;
  List.iteri
    (fun i (c : Lacr_mcmf.Difference.constr) ->
      put (Array.length edges + i) c.Lacr_mcmf.Difference.a c.Lacr_mcmf.Difference.b
        c.Lacr_mcmf.Difference.bound)
    extra;
  let k_cand = ref 0 and k_always = ref n_header and k_pending = ref base in
  iter (fun u v w d ->
      if is_candidate d then begin
        cand.(!k_cand) <- d;
        incr k_cand
      end;
      if always u v w d then begin
        put !k_always u v (w - 1);
        incr k_always
      end
      else if pending u v w d then begin
        put !k_pending u v (w - 1);
        pd.(!k_pending - base) <- d;
        incr k_pending
      end);
  let swap i j =
    let a = ca.(i) and b = cb.(i) and c = cbound.(i) in
    put i ca.(j) cb.(j) cbound.(j);
    put j a b c;
    let t = pd.(i - base) in
    pd.(i - base) <- pd.(j - base);
    pd.(j - base) <- t
  in
  (* Moves the pending pairs with D > x + epsilon to the front of the
     pending range and returns the end of that block: the probe
     system at [x] is the slots before it. *)
  let split_pending x =
    let i = ref !prefix and j = ref (!pending_end - 1) in
    while !i <= !j do
      if pd.(!i - base) > x +. epsilon then incr i
      else begin
        swap !i !j;
        decr j
      end
    done;
    !i
  in
  (* The candidate window is [cand.(0) .. cand.(!len - 1)]. *)
  let len = ref !n_cand in
  let keep_window keep lo hi =
    let j = ref 0 in
    for i = lo to hi - 1 do
      if keep cand.(i) then begin
        cand.(!j) <- cand.(i);
        incr j
      end
    done;
    len := !j
  in
  let rounds = ref 0 and probes = ref 0 in
  let best = ref None in
  while !len > 0 do
    let k = !len / 2 in
    select cand !len k;
    let x = cand.(k) in
    incr probes;
    let m = split_pending x in
    let init = Option.map snd !best in
    match Lacr_mcmf.Difference.feasible_arrays ?init ~rounds ~n ~a:ca ~b:cb ~bound:cbound ~m () with
    | Some dist ->
      best := Some (x, dist);
      prefix := m;
      keep_window (fun d -> d < x) 0 k
    | None ->
      pending_end := m;
      keep_window (fun d -> d > x) (k + 1) !len
  done;
  if Lacr_obs.Trace.enabled trace then begin
    Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "feasibility.candidates") !n_cand;
    Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "feasibility.probes") !probes;
    Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "feasibility.relax_rounds") !rounds
  end;
  let result =
    match !best with
    | Some (period, dist) -> { period; labels = normalize_to_host g dist }
    | None ->
      (* No candidate at all, or (impossible by the cap argument) none
         feasible: the current period with the identity retiming. *)
      { period = t_init; labels = Array.make n 0 }
  in
  if Lacr_util.Sanitize.enabled () then check_witness g ~period:result.period result.labels;
  result
