(* The lacr benchmark executable.

   Drives the planner only through its public entry points:
   [Planner.plan] for the untraced runs, and the individual layer calls
   (in [Planner.plan]'s own order) for the traced run.  The serving
   workload is driven over the lacrd wire protocol by run.py; this
   program supplies its goldens.

   Subcommands (all print their machine-readable result as the last
   stdout line):

     bench.exe run --seconds S
     bench.exe layers
     bench.exe replay --circuits C1,C2,...
     bench.exe calibrate --rounds N
     bench.exe golden --out FILE

   [run] reports the end-to-end metrics and [layers] the per-layer
   ones.  [replay] gives the per-layer metrics of the serving daemon's
   warm path for a sequence of requests.  [golden] captures the result
   bodies that the other three, and the serving check in run.py,
   compare against. *)

module Config = Lacr_core.Config
module Planner = Lacr_core.Planner
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Feasibility = Lacr_retime.Feasibility
module Constraints = Lacr_retime.Constraints
module Mcmf = Lacr_mcmf.Mcmf
module Pool = Lacr_util.Pool
module Trace = Lacr_obs.Trace
module Jsonx = Lacr_obs.Jsonx
module Suite = Lacr_circuits.Suite
module Synth = Lacr_circuits.Synth
module Service = Lacr_serve.Service

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

type input = { cname : string; netlist : Lacr_netlist.Netlist.t }

(* The iscas workload's inputs: the ten Table-1 circuits in Table-1
   order, made fresh on every call (no memo) so set-up can be timed.

   Inputs and planner configuration ([Config.default]) are fixed; the
   seed only drives the serving workload's request schedule, in run.py.
   A seed-dependent input changes how hard the plans are by more than
   any bound on a run-to-run spread could absorb: five ISCAS passes at
   [Config.seed] 1..5 took 13.7 s to 23.7 s, and shuffling the plan
   order alone moved the pass's peak RSS between 373 and 482 MB. *)
let make_inputs () =
  List.map
    (fun cname ->
      match Suite.spec_of cname with
      | Some spec -> { cname; netlist = Synth.generate spec }
      | None -> failwith ("no Table-1 spec for " ^ cname))
    Suite.table1_names

(* The seconds of [--seconds] one pass over the inputs stands for.  A
   run makes [--seconds / pass_seconds] passes (at least one), so two
   builds of the program always do the same work.  A pass takes 15 to
   20 s on a 2-CPU host; at --seconds 50 every circuit is planned three
   times. *)
let pass_seconds = 16.0

(* ------------------------------------------------------------------ *)
(* Statistics and process probes *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median = percentile 50.0

(* The highest of the usual percentiles with at least ten samples
   beyond it, for the human summary. *)
let tail_percentile n =
  List.fold_left
    (fun best p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then Printf.sprintf "p%.0f" p else best)
    "none" [ 50.0; 75.0; 90.0; 95.0; 99.0 ]

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      | _ -> scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

(* Words allocated by the calling domain since [g0]. *)
let alloc_words (g0 : Gc.stat) (g1 : Gc.stat) =
  g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
  -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* The benchmark's reference kernels: fixed computations that use no
   code of the program.  A shared 2-vCPU host runs the same plan up to
   twice as slowly for minutes at a time, and every layer of the plan
   slows by the same factor; timing these kernels next to each plan
   measures that state, and every time the benchmark reports is scaled
   by it to the reference speed (see RECORD.md).  The kernels do what
   the planner does -- compare-and-branch over arrays, hashing,
   min-plus relaxation over a dense matrix -- because a latency-bound
   loop (a dependent arithmetic chain, a pointer chase) slows by only
   about half as much as the planner in the host's slow states. *)
let kernels =
  [
    ( "sort",
      fun () ->
        let a = Array.init 100_000 (fun i -> ((i * 1103515245) + 12345) land 0xFFFFFF) in
        Array.sort compare a;
        a.(100) );
    ( "hash",
      fun () ->
        let h = Hashtbl.create 1024 in
        for i = 0 to 100_000 - 1 do
          Hashtbl.replace h ((i * 2654435761) land 0xFFFFF) i
        done;
        let s = ref 0 in
        for i = 0 to 200_000 - 1 do
          match Hashtbl.find_opt h (i land 0xFFFFF) with Some v -> s := !s + v | None -> ()
        done;
        !s );
    ( "minplus",
      fun () ->
        let n = 384 in
        let m =
          Array.init n (fun i -> Array.init n (fun j -> float_of_int (((i * 7) + (j * 13)) mod 97)))
        in
        for k = 0 to 47 do
          let mk = m.(k) in
          for i = 0 to n - 1 do
            let mi = m.(i) in
            let mik = mi.(k) in
            for j = 0 to n - 1 do
              let v = mik +. mk.(j) in
              if v < mi.(j) then mi.(j) <- v
            done
          done
        done;
        int_of_float m.(n - 1).(n - 1) );
  ]

(* Each kernel's time in ms at the reference speed: the medians of
   three 20-round [bench.exe calibrate] runs on a 2-vCPU VM.  The
   figures only fix the scale; any constants would do. *)
let reference_ms = [ ("sort", 30.0); ("hash", 35.0); ("minplus", 14.5) ]

let kernel_ms (name, f) =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (name, (now () -. t0) *. 1000.0)

(* How much slower than the reference speed the host ran the kernels
   in [times]: the geometric mean of their time ratios.  A time
   measured then, divided by this, is the time at the reference speed. *)
let slowdown_of times =
  let log_ratio (name, ms) = log (ms /. List.assoc name reference_ms) in
  exp (List.fold_left (fun acc t -> acc +. log_ratio t) 0.0 times /. float_of_int (List.length times))

let slowdown () = slowdown_of (List.map kernel_ms kernels)

(* ------------------------------------------------------------------ *)
(* Correctness *)

(* Check one labelling from outside the planner: legal on its graph and
   clocking the retimed graph within [t_clk]. *)
let check_labels what g labels ~t_clk =
  if not (Graph.is_legal g labels) then Error (what ^ ": illegal retiming labels")
  else
    match Graph.retime g labels with
    | Error msg -> Error (what ^ ": " ^ msg)
    | Ok retimed ->
      let period = Graph.clock_period retimed in
      if period <= t_clk +. 1e-6 then Ok ()
      else Error (Printf.sprintf "%s: retimed period %.6f exceeds t_clk %.6f" what period t_clk)

let check_run (r : Planner.run) =
  let t_clk = r.Planner.t_clk in
  let g = r.Planner.instance.Build.graph in
  let ( >>= ) a f = match a with Ok () -> f () | Error _ as e -> e in
  check_labels "minarea" g r.Planner.minarea.Lac.labels ~t_clk >>= fun () ->
  check_labels "lac" g r.Planner.lac.Lac.labels ~t_clk >>= fun () ->
  match r.Planner.second with
  | Some (Ok { Planner.instance2; lac2 = Ok o }) ->
    check_labels "second" instance2.Build.graph o.Lac.labels ~t_clk
  | Some (Ok { Planner.lac2 = Error _; _ }) | Some (Error _) | None -> Ok ()

let body_of_run r = Jsonx.to_string (Service.result_body r)

(* The Table-1 row of a result body: MA and LAC N_FOA / N_F / N_FN /
   N_wr / labels hash, and the second-iteration N_FOA and hash. *)
let row_of_body body =
  match Jsonx.parse body with
  | Error msg -> "unparseable: " ^ msg
  | Ok doc ->
    let field path =
      let rec go doc = function
        | [] -> (
          match doc with
          | Jsonx.Num f -> Printf.sprintf "%.0f" f
          | Jsonx.Null -> "-"
          | Jsonx.Str s -> s
          | Jsonx.Bool _ | Jsonx.Arr _ | Jsonx.Obj _ -> "?")
        | key :: rest -> (
          match Jsonx.member key doc with Some sub -> go sub rest | None -> "-")
      in
      go doc path
    in
    let outcome key =
      String.concat "/"
        (List.map (fun f -> field [ key; f ]) [ "n_foa"; "n_f"; "n_fn"; "n_wr"; "labels_hash" ])
    in
    let second =
      match Jsonx.member "second" doc with
      | None | Some Jsonx.Null -> "-"
      | Some s -> (
        match Jsonx.member "lac2" s with
        | Some lac2 -> (
          match Jsonx.member "error" lac2 with
          | Some _ -> "infeasible"
          | None ->
            field [ "second"; "lac2"; "n_foa" ] ^ "/" ^ field [ "second"; "lac2"; "labels_hash" ])
        | None -> "rebuild-failed")
    in
    Printf.sprintf "ma=%s lac=%s second=%s" (outcome "minarea") (outcome "lac") second

(* One "CIRCUIT<TAB>BODY" line per workload circuit: the single-shot
   plan's result body (see [cmd_golden]).  Paths are relative to the
   repository root, where run.py starts this program. *)
let golden_path = "perfbench/golden.tsv"

let load_goldens () =
  let ic = open_in golden_path in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ cname; body ] -> read ((cname, body) :: acc)
      | _ -> failwith ("malformed line in " ^ golden_path))
  in
  let rows = read [] in
  close_in ic;
  rows

(* ------------------------------------------------------------------ *)
(* Output *)

let emit_result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, v) -> Printf.bprintf buf "%s\"%s\": %.17g" (if i = 0 then "" else ", ") name v)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Setup: input generation, repeated, median reported *)

let setup_repeats = 50

let setup make_inputs =
  let slow = slowdown () in
  let times = ref [] and inputs = ref [] in
  for _ = 1 to setup_repeats do
    let t0 = now () in
    inputs := make_inputs ();
    times := (now () -. t0) :: !times
  done;
  (!inputs, median !times /. slow)

(* Paper Table 1's "N_FOA Decr.": mean relative decrease from min-area
   to LAC over the rows whose min-area plan has violations.  With no
   such row there is nothing left to remove: 100. *)
let violations_removed_pct rows =
  let decreases =
    List.filter_map
      (fun (ma, lac, _) ->
        if ma = 0 then None else Some (100.0 *. float_of_int (ma - lac) /. float_of_int ma))
      rows
  in
  match decreases with
  | [] -> 100.0
  | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics *)

let cmd_run ~seconds =
  let inputs, setup_s = setup make_inputs in
  let goldens = load_goldens () in
  let n_passes = max 1 (int_of_float (seconds /. pass_seconds)) in
  let pass_walls = ref [] and latencies = ref [] and failures = ref [] and rows = ref [] in
  let slowdowns = ref [] in
  let check cname ~pass = function
    | Error msg -> failures := (cname ^ ": " ^ msg) :: !failures
    | Ok r -> (
      match check_run r with
      | Error msg -> failures := (cname ^ ": " ^ msg) :: !failures
      | Ok () ->
        let got = row_of_body (body_of_run r) in
        let want =
          Option.fold ~none:"(no golden)" ~some:row_of_body (List.assoc_opt cname goldens)
        in
        if not (String.equal got want) then
          failures :=
            Printf.sprintf "%s: Table-1 row %s differs from golden %s" cname got want :: !failures;
        (* Only the Table-1 counts stay alive, not the plan. *)
        if pass = 1 then
          rows :=
            (r.Planner.minarea.Lac.n_foa, r.Planner.lac.Lac.n_foa, r.Planner.lac.Lac.n_f) :: !rows)
  in
  (* The heap is fully collected before the first plan and after every
     plan, and then the kernels measure the host's slowdown; a plan
     starts on that heap, with only the kernels' garbage in it.  A
     plan's time is scaled by the geometric mean of the slowdowns
     measured just before and just after it. *)
  Gc.compact ();
  let last_slow = ref (slowdown ()) in
  for pass = 1 to n_passes do
    let pass_wall = ref 0.0 in
    List.iter
      (fun { cname; netlist } ->
        let t0 = now () in
        let result = Planner.plan ~config:Config.default netlist in
        let dt = now () -. t0 in
        check cname ~pass result;
        Gc.compact ();
        let after = slowdown () in
        let slow = sqrt (!last_slow *. after) in
        last_slow := after;
        pass_wall := !pass_wall +. dt;
        slowdowns := slow :: !slowdowns;
        latencies := (cname, dt *. 1000.0 /. slow) :: !latencies;
        Printf.printf "plan %s %.1f ms, host slowdown %.3f\n" cname (dt *. 1000.0) slow)
      inputs;
    pass_walls := !pass_wall :: !pass_walls
  done;
  let attempted = n_passes * List.length inputs in
  (* Each circuit's plan time is its median over the passes, at the
     reference speed.  The circuits' plan times differ by up to 20x, so
     the percentiles are taken over these ten figures, not over all
     plans: a percentile over all plans would sit between two circuits
     and jump with either one's noise. *)
  let circuit_ms =
    List.map
      (fun { cname; _ } ->
        median
          (List.filter_map
             (fun (c, ms) -> if String.equal c cname then Some ms else None)
             !latencies))
      inputs
  in
  let wall_s = List.fold_left ( +. ) 0.0 circuit_ms /. 1000.0 in
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) (List.rev !failures);
  Printf.printf "median plan times at the reference speed:%s\n"
    (String.concat ""
       (List.map2 (fun { cname; _ } ms -> Printf.sprintf " %s %.1f ms" cname ms) inputs circuit_ms));
  Printf.printf
    "summary: %d plans in %d passes of %s s (measured), median host slowdown %.3f; latency \
     samples %d (per-circuit medians of %d; highest percentile with >= 10 samples beyond: %s); \
     failed_frac %.4f\n"
    attempted n_passes
    (String.concat " " (List.rev_map (Printf.sprintf "%.2f") !pass_walls))
    (median !slowdowns)
    (List.length circuit_ms) n_passes
    (tail_percentile (List.length circuit_ms))
    (float_of_int failed /. float_of_int attempted);
  emit_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("setup_s", setup_s);
      ("wall_s", wall_s);
      ("peak_rss_mb", float_of_int (vm_hwm_kb ()) /. 1024.0);
      ("latency_ms.p50", percentile 50.0 circuit_ms);
      ("latency_ms.p90", percentile 90.0 circuit_ms);
      ("throughput_rps", float_of_int (List.length inputs) /. wall_s);
      ("violations_removed_pct", violations_removed_pct !rows);
      ("n_f_total", float_of_int (List.fold_left (fun acc (_, _, n_f) -> acc + n_f) 0 !rows));
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics *)

type span = { sname : string; ms : float; alloc_w : float }

(* Accumulated per-layer numbers over every plan of the traced pass. *)
type acc = {
  mutable spans : span list;
  mutable build_sub : (string * float) list;  (** program-side build stage ms *)
  mutable vertices : int;
  mutable edges : int;
  mutable pairs : int;
  mutable constraints_count : int;
  mutable constraints_bytes : int;
  mutable constraints_period : int;
  mutable minarea_settles : int;
  mutable lac_rounds : int;
  mutable mcmf_settles : int;
  mutable mcmf_pushes : int;
  mutable mcmf_warm : int;
  mutable second_count : int;
}

let new_acc () =
  {
    spans = [];
    build_sub = [];
    vertices = 0;
    edges = 0;
    pairs = 0;
    constraints_count = 0;
    constraints_bytes = 0;
    constraints_period = 0;
    minarea_settles = 0;
    lac_rounds = 0;
    mcmf_settles = 0;
    mcmf_pushes = 0;
    mcmf_warm = 0;
    second_count = 0;
  }

(* A benchmark-side span around one layer call: wall time and the
   calling domain's allocation. *)
let span acc sname f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  acc.spans <- { sname; ms = (t1 -. t0) *. 1000.0; alloc_w = alloc_words g0 g1 } :: acc.spans;
  r

let span_total acc name field =
  List.fold_left (fun s sp -> if String.equal sp.sname name then s +. field sp else s) 0.0 acc.spans

let add_sub acc name ms =
  let prev = Option.value (List.assoc_opt name acc.build_sub) ~default:0.0 in
  acc.build_sub <- (name, prev +. ms) :: List.remove_assoc name acc.build_sub

let count_pairs = function
  | Paths.Streamed f -> f.Paths.row_off.(f.Paths.fn)
  | Paths.Dense _ as wd ->
    let n = ref 0 in
    Paths.iter_pairs wd (fun _ _ _ _ -> incr n);
    !n

let sum_stats f stats = List.fold_left (fun s st -> s + f st) 0 stats

(* The back half of [Planner.plan]: steps 7-9 on a prepared instance
   and constraint system.  [session] is a resident compiled solver, as
   the serving daemon's cache holds one. *)
let solve acc ~pool ?session instance cs netlist ~t_init ~t_min ~t_clk =
  let config = Config.default in
  let minarea = span acc "minarea" (fun () -> Lac.min_area_baseline ~pool instance cs) in
  let lac = span acc "lac" (fun () -> Lac.retime ?session ~pool instance cs) in
  match (minarea, lac) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok minarea, Ok lac ->
    let settles = sum_stats (fun s -> s.Mcmf.settles) in
    acc.minarea_settles <- acc.minarea_settles + settles minarea.Lac.solver;
    acc.lac_rounds <- acc.lac_rounds + lac.Lac.n_wr;
    acc.mcmf_settles <- acc.mcmf_settles + settles lac.Lac.solver;
    acc.mcmf_pushes <- acc.mcmf_pushes + sum_stats (fun s -> s.Mcmf.pushes) lac.Lac.solver;
    acc.mcmf_warm <-
      acc.mcmf_warm + sum_stats (fun s -> if s.Mcmf.warm_start then 1 else 0) lac.Lac.solver;
    let second =
      if lac.Lac.n_foa = 0 then None
      else begin
        acc.second_count <- acc.second_count + 1;
        Some
          (span acc "second" (fun () ->
               let soft_growth = Planner.growth_for instance lac in
               let layout = (instance.Build.sequence, instance.Build.dims) in
               match Build.build ~config ~soft_growth ~layout ~pool netlist with
               | Error msg -> Error msg
               | Ok instance2 ->
                 let g2 = instance2.Build.graph in
                 let wd2 = Paths.compute ~mode:config.Config.paths_mode ~pool g2 in
                 let cs2 =
                   Constraints.generate ~prune:config.Config.prune_constraints
                     ~extra:instance2.Build.pin_constraints ~pool g2 wd2 ~period:t_clk
                 in
                 Ok { Planner.instance2; lac2 = Lac.retime ~pool instance2 cs2 }))
      end
    in
    Ok { Planner.instance; t_init; t_min; t_clk; minarea; lac; second }

(* [Planner.plan], one public layer call at a time, in its order. *)
let layered acc netlist =
  let config = Config.default in
  Pool.with_pool ~size:(Pool.resolve_size ~requested:config.Config.domains) @@ fun pool ->
  let build_ctx = Trace.create () in
  match span acc "build" (fun () -> Build.build ~config ~pool ~trace:build_ctx netlist) with
  | Error msg -> Error msg
  | Ok instance -> (
    List.iter
      (fun (_, name, _, secs) -> add_sub acc name (secs *. 1000.0))
      (Trace.span_summary ~max_depth:1 build_ctx);
    let g = instance.Build.graph in
    acc.vertices <- acc.vertices + Graph.num_vertices g;
    acc.edges <- acc.edges + Graph.num_edges g;
    let t_init = span acc "clock_period" (fun () -> Graph.clock_period g) in
    let wd = span acc "paths" (fun () -> Paths.compute ~mode:config.Config.paths_mode ~pool g) in
    acc.pairs <- acc.pairs + count_pairs wd;
    let extra = instance.Build.pin_constraints in
    let mp = span acc "min_period" (fun () -> Feasibility.min_period ~extra g wd) in
    let t_min = mp.Feasibility.period in
    let t_clk = t_min +. (config.Config.clk_fraction *. (t_init -. t_min)) in
    let cs =
      span acc "constraints" (fun () ->
          Constraints.generate ~prune:config.Config.prune_constraints ~extra ~pool g wd
            ~period:t_clk)
    in
    acc.constraints_count <- acc.constraints_count + cs.Constraints.system.Constraints.m;
    acc.constraints_bytes <- acc.constraints_bytes + Constraints.system_bytes cs.Constraints.system;
    acc.constraints_period <- acc.constraints_period + cs.Constraints.n_period;
    solve acc ~pool instance cs netlist ~t_init ~t_min ~t_clk)

let top_layers =
  [ "build"; "clock_period"; "paths"; "min_period"; "constraints"; "minarea"; "lac"; "second" ]

(* Print the layer shares of the traced wall and return every
   per-layer metric. *)
let layer_metrics acc ~traced_ms ~plans ~overhead_pct =
  let ms name = span_total acc name (fun sp -> sp.ms) in
  let mw name = span_total acc name (fun sp -> sp.alloc_w) /. 1e6 in
  let sub name = Option.value (List.assoc_opt name acc.build_sub) ~default:0.0 in
  let covered = List.fold_left (fun s l -> s +. ms l) 0.0 top_layers in
  Printf.printf "layer shares of the traced wall (%.1f ms over %d plans):\n" traced_ms plans;
  List.iter
    (fun l -> Printf.printf "  %-14s %10.1f ms  %5.1f%%\n" l (ms l) (100.0 *. ms l /. traced_ms))
    top_layers;
  Printf.printf "  %-14s %10.1f ms  %5.1f%%\n" "(uncovered)" (traced_ms -. covered)
    (100.0 *. (traced_ms -. covered) /. traced_ms);
  let lac_ms = ms "lac" in
  [
    ("build.ms", ms "build");
    ("build.partition.ms", sub "build.partition");
    ("build.floorplan.ms", sub "build.floorplan");
    ("build.route.ms", sub "route.all");
    ("graph.vertices", float_of_int acc.vertices);
    ("graph.edges", float_of_int acc.edges);
    ("paths.ms", ms "paths");
    ("paths.alloc_mw", mw "paths");
    ("paths.pairs", float_of_int acc.pairs);
    ("min_period.ms", ms "min_period");
    ("min_period.alloc_mw", mw "min_period");
    ("constraints.ms", ms "constraints");
    ("constraints.count", float_of_int acc.constraints_count);
    ("constraints.period", float_of_int acc.constraints_period);
    ("constraints.bytes", float_of_int acc.constraints_bytes);
    ("constraints.alloc_mw", mw "constraints");
    ("minarea.ms", ms "minarea");
    ("minarea.settles", float_of_int acc.minarea_settles);
    ("lac.ms", lac_ms);
    ("lac.rounds", float_of_int acc.lac_rounds);
    ("lac.round_ms", lac_ms /. float_of_int (max 1 acc.lac_rounds));
    ("mcmf.settles", float_of_int acc.mcmf_settles);
    ("mcmf.pushes", float_of_int acc.mcmf_pushes);
    ("mcmf.warm_ratio", float_of_int acc.mcmf_warm /. float_of_int (max 1 acc.lac_rounds));
    ("second.ms", ms "second");
    ("second.count", float_of_int acc.second_count);
    ("serve.service_ms.p50", 0.0);
    ("serve.wait_ms.p50", 0.0);
    ("serve.cache.hit_ratio", 0.0);
    ("serve.miss_ms.p50", 0.0);
    ("trace_overhead_pct", overhead_pct);
    ("uncovered.ms", traced_ms -. covered);
  ]

let cmd_layers () =
  let inputs = make_inputs () in
  let acc = new_acc () in
  let traced_wall = ref 0.0 and plain_wall = ref 0.0 and attempted = ref 0 and failures = ref [] in
  List.iter
    (fun { cname; netlist } ->
      attempted := !attempted + 2;
      let t0 = now () in
      let plain = Planner.plan ~config:Config.default netlist in
      let t1 = now () in
      let traced = layered acc netlist in
      let t2 = now () in
      plain_wall := !plain_wall +. (t1 -. t0);
      traced_wall := !traced_wall +. (t2 -. t1);
      let fail msg = failures := (cname ^ ": " ^ msg) :: !failures in
      match (plain, traced) with
      | Error msg, _ -> fail ("plan: " ^ msg)
      | _, Error msg -> fail ("layered: " ^ msg)
      | Ok p, Ok t -> (
        (match check_run t with Ok () -> () | Error msg -> fail ("layered " ^ msg));
        let bp = body_of_run p and bt = body_of_run t in
        if not (String.equal bp bt) then
          fail
            (Printf.sprintf "traced Table-1 row %s differs from untraced %s" (row_of_body bt)
               (row_of_body bp))))
    inputs;
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) (List.rev !failures);
  emit_result ~correct:(failed = 0) ~attempted:!attempted ~failed
    (layer_metrics acc ~traced_ms:(!traced_wall *. 1000.0) ~plans:(List.length inputs)
       ~overhead_pct:(100.0 *. (!traced_wall -. !plain_wall) /. !plain_wall))

(* The serving daemon's warm path, in-process: each circuit prepared
   once and given a resident compiled solver (the daemon's cache after
   warm-up), then the back half of every request in [circuits], one
   at a time on one domain as one daemon worker runs it. *)
let cmd_replay ~circuits =
  let goldens = load_goldens () in
  let prepare cname =
    let ( let* ) = Result.bind in
    let* netlist = Suite.resolve cname in
    let* prepared = Result.map_error Planner.error_message (Planner.prepare netlist) in
    let* session = Planner.compile_solver prepared in
    Ok (cname, (prepared, session))
  in
  let resident =
    List.map
      (fun cname ->
        match prepare cname with Ok r -> r | Error msg -> failwith (cname ^ ": " ^ msg))
      (List.sort_uniq String.compare circuits)
  in
  let acc = new_acc () and failures = ref [] in
  let t0 = now () in
  Pool.with_pool ~size:1 (fun pool ->
      List.iter
        (fun cname ->
          let p, session = List.assoc cname resident in
          match
            solve acc ~pool ~session p.Planner.p_instance p.Planner.p_constraints
              p.Planner.p_netlist ~t_init:p.Planner.p_t_init ~t_min:p.Planner.p_t_min
              ~t_clk:p.Planner.p_t_clk
          with
          | Error msg -> failures := (cname ^ ": " ^ msg) :: !failures
          | Ok r ->
            let golden = List.assoc_opt cname goldens in
            if not (Option.equal String.equal (Some (body_of_run r)) golden) then
              failures :=
                (cname ^ ": replayed result differs from the single-shot plan") :: !failures)
        circuits);
  let traced_ms = (now () -. t0) *. 1000.0 in
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) (List.rev !failures);
  emit_result ~correct:(failed = 0) ~attempted:(List.length circuits) ~failed
    (layer_metrics acc ~traced_ms ~plans:(List.length circuits) ~overhead_pct:0.0)

(* ------------------------------------------------------------------ *)
(* Calibration *)

(* [rounds] rounds of the reference kernels: each kernel's median time
   and the median slowdown.  run.py takes the serving workload's
   slowdown from here, with the daemon idle; [reference_ms] comes from
   the kernels' medians. *)
let cmd_calibrate ~rounds =
  let samples = List.init rounds (fun _ -> List.map kernel_ms kernels) in
  List.iter
    (fun (name, _) ->
      Printf.printf "kernel %s %.2f ms\n" name
        (median (List.map (fun times -> List.assoc name times) samples)))
    kernels;
  Printf.printf "{\"slowdown\": %.17g}\n" (median (List.map slowdown_of samples))

(* ------------------------------------------------------------------ *)
(* Goldens *)

(* The serving daemon's own oracle: a single-shot in-process plan of
   each workload circuit, rendered as a plan response's result body. *)
let cmd_golden ~out =
  let oc = open_out out in
  List.iter
    (fun cname ->
      match Service.reference_result cname with
      | Error msg -> failwith (cname ^ ": " ^ msg)
      | Ok body -> Printf.fprintf oc "%s\t%s\n%!" cname (Jsonx.to_string body))
    Suite.table1_names;
  close_out oc;
  print_endline "{\"golden\": \"written\"}"

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> Ok acc
    | bad :: _ -> Error ("unexpected argument " ^ bad)
  in
  let usage msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  match args with
  | [] -> usage "missing subcommand (run | layers | replay | calibrate | golden)"
  | sub :: rest -> (
    match opts [] rest with
    | Error msg -> usage msg
    | Ok kv -> (
      let get k = List.assoc_opt k kv in
      match sub with
      | "golden" -> (
        match get "out" with
        | Some out -> cmd_golden ~out
        | None -> usage "golden needs --out")
      | "replay" -> (
        match get "circuits" with
        | Some list -> cmd_replay ~circuits:(String.split_on_char ',' list)
        | None -> usage "replay needs --circuits")
      | "run" -> (
        match Option.bind (get "seconds") float_of_string_opt with
        | Some seconds -> cmd_run ~seconds
        | None -> usage "run needs --seconds")
      | "layers" -> cmd_layers ()
      | "calibrate" -> (
        match Option.bind (get "rounds") int_of_string_opt with
        | Some rounds when rounds > 0 -> cmd_calibrate ~rounds
        | _ -> usage "calibrate needs --rounds N (N > 0)")
      | other -> usage ("unknown subcommand " ^ other)))
