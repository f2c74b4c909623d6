(** The abstract LAC-retiming problem: a retiming graph, a tile per
    vertex, and per-tile flip-flop capacities — and the one per-tile
    flip-flop ledger over it (paper §4.2, Eqn (3) and the N{_FOA},
    N{_F}, N{_FN} columns of Table 1).

    A flip-flop on edge [e = (u, v)] after retiming sits in the tile
    of its fan-in unit, [P(u)]; tile consumption is
    [AC(t) = sum over edges with P(src) = t of w_r(e) * ff_area].
    Flip-flops on host edges model I/O-pad registers and are charged
    to no tile.

    [Build.instance] produces one for real planning runs; tests and
    the exact reference solver construct small ones directly. *)

type t = {
  graph : Lacr_retime.Graph.t;
  vertex_tile : int array;
      (** tile per vertex; -1 = untiled (host, I/O pads) *)
  n_tiles : int;
  capacity : float array;  (** remaining FF-area capacity per tile *)
  ff_area : float;  (** area of one flip-flop *)
  interconnect : bool array;
      (** interconnect-unit vertices (for the N{_FN} statistic and the
          epsilon area bias) *)
}

val validate : t -> (unit, string) result

val consumption : t -> labels:int array -> float array
(** AC(t): flip-flop area charged per tile under a labelling (each
    flip-flop on edge (u,v) charged to [vertex_tile.(u)]). *)

val violated_tiles : t -> consumption:float array -> (int * float) list
(** The tiles whose consumption (an AC(t) vector from {!consumption})
    exceeds their capacity, each with its excess flip-flop area
    [AC(t) - max(0, capacity(t))], worst first. *)

val violations_of : t -> consumption:float array -> int
(** The N{_FOA} count of an AC(t) vector: [sum] over
    {!violated_tiles} of [ceil(excess / ff_area)]. *)

val violations : t -> labels:int array -> int
(** N{_FOA} under a labelling: {!violations_of} its {!consumption}. *)

val ff_count : ?pool:Lacr_util.Pool.t -> t -> labels:int array -> int
(** Total retimed flip-flops.  Integer chunk-wise reduction over the
    edge set: the result is exact and pool-size independent. *)

val ff_in_interconnect : ?pool:Lacr_util.Pool.t -> t -> labels:int array -> int
(** Flip-flops whose fan-in is an interconnect unit — registers living
    in the wires (N{_FN}).  Exact and pool-size independent, like
    {!ff_count}. *)

val of_instance : Build.instance -> t
(** The problem of a planning instance; [capacity] is each tile's
    remaining capacity [C(t)] after repeater insertion. *)
