module Graph = Lacr_retime.Graph
module Tilegraph = Lacr_tilegraph.Tilegraph
module Occupancy = Lacr_tilegraph.Occupancy

type t = {
  graph : Graph.t;
  vertex_tile : int array;
  n_tiles : int;
  capacity : float array;
  ff_area : float;
  interconnect : bool array;
}

let validate t =
  let n = Graph.num_vertices t.graph in
  if Array.length t.vertex_tile <> n then Error "vertex_tile arity"
  else if Array.length t.interconnect <> n then Error "interconnect arity"
  else if Array.length t.capacity <> t.n_tiles then Error "capacity arity"
  else if t.ff_area <= 0.0 then Error "non-positive ff_area"
  else if Array.exists (fun tile -> tile < -1 || tile >= t.n_tiles) t.vertex_tile then
    Error "vertex tile out of range"
  else Ok ()

let consumption t ~labels =
  let acc = Array.make t.n_tiles 0.0 in
  Array.iter
    (fun (e : Graph.edge) ->
      let tile = t.vertex_tile.(e.Graph.src) in
      if tile >= 0 then begin
        let w = Graph.retimed_weight t.graph labels e in
        acc.(tile) <- acc.(tile) +. (float_of_int w *. t.ff_area)
      end)
    (Graph.edges t.graph);
  acc

(* Tiles are few (hundreds), so the list and its sort cost nothing
   next to the edge walk in [consumption]. *)
let violated_tiles t ~consumption =
  let violated = ref [] in
  Array.iteri
    (fun tile used ->
      let excess = used -. max 0.0 t.capacity.(tile) in
      if excess > 1e-9 then violated := (tile, excess) :: !violated)
    consumption;
  List.sort (fun (_, a) (_, b) -> compare b a) !violated

let violations_of t ~consumption =
  List.fold_left
    (fun total (_, excess) -> total + int_of_float (ceil ((excess /. t.ff_area) -. 1e-9)))
    0
    (violated_tiles t ~consumption)

let violations t ~labels = violations_of t ~consumption:(consumption t ~labels)

(* Integer reductions over the edge set: per-chunk partial sums make
   them exact and deterministic under any pool size. *)
let ff_count ?(pool = Lacr_util.Pool.sequential) t ~labels =
  let edges = Graph.edges t.graph in
  Lacr_util.Pool.parallel_sum pool (Array.length edges) (fun i ->
      Graph.retimed_weight t.graph labels edges.(i))

let ff_in_interconnect ?(pool = Lacr_util.Pool.sequential) t ~labels =
  let edges = Graph.edges t.graph in
  Lacr_util.Pool.parallel_sum pool (Array.length edges) (fun i ->
      let e = edges.(i) in
      if t.interconnect.(e.Graph.src) then Graph.retimed_weight t.graph labels e else 0)

let of_instance (inst : Build.instance) =
  let n = Graph.num_vertices inst.Build.graph in
  let n_tiles = Tilegraph.num_tiles inst.Build.tilegraph in
  {
    graph = inst.Build.graph;
    vertex_tile = inst.Build.vertex_tile;
    n_tiles;
    capacity =
      Array.init n_tiles (fun tile -> Occupancy.remaining inst.Build.occupancy tile);
    ff_area = inst.Build.config.Config.delay_model.Lacr_repeater.Delay_model.ff_area;
    interconnect = Array.init n (fun v -> Build.interconnect_vertex inst v);
  }
