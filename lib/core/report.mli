(** Paper-style reporting: Table 1 rows, the §5 summary claims, and
    ASCII renderings of Figures 1 and 2. *)

type row = {
  circuit : string;
  t_clk : float;
  t_init : float;
  ma_n_foa : int;
  ma_n_f : int;
  ma_n_fn : int;
  ma_exec : float;
  lac_n_foa : int;
  lac_n_foa_second : int option;  (** parenthesised 2nd iteration *)
  lac_n_f : int;
  lac_n_fn : int;
  lac_n_wr : int;
  lac_exec : float;
  decrease_pct : float option;
      (** N_FOA decrease, [None] when the baseline had none (the
          paper prints N/A) *)
  second_error : string option;
      (** why the second planning iteration produced no numbers: the
          re-build failed or the frozen T_clk became infeasible *)
}

val row_of_run : name:string -> Planner.run -> row

val render_table1 : row list -> string
(** The full Table-1 layout, plus the average decrease line. *)

val average_decrease : row list -> float
(** Mean of the defined [decrease_pct] values. *)

val interconnect_ff_fraction : row list -> float * float
(** (mean, max) of N{_FN}/N{_F} over the LAC columns — the paper's
    "about 10%, up to 30%" observation. *)

val render_flow_figure : unit -> string
(** Figure 1: the interconnect-planning design flow. *)

val render_tile_figure : Build.instance -> string
(** Figure 2: the tile graph of a planned instance, annotated with
    per-tile capacities. *)

val csv_header : string list
val csv_row : row -> string list
(** CSV projection of a Table-1 row ([Lacr_util.Csv] friendly). *)

val render_trace_summary : Lacr_obs.Trace.ctx -> string
(** Human-readable digest of an observability context: span
    aggregates at every depth of the planner track (indented by
    nesting depth, with call counts and total wall-clock; the rows of
    the metrics dump's span list), counter totals and histogram
    buckets.  Empty string for a disabled or empty context. *)
