module Json = Regemu_obs.Json

type load = { label : string; k : int; readers : int; f : int; n : int }

(* Two load points that pull the three axes apart: a light point at
   the minimum interesting writer count, and a heavy one where both
   the writer count and the fault tolerance grow — CDS pays k cells on
   every replica, Algorithm 2 spreads kf + ⌈k/z⌉(f+1) cells across all
   n servers, ABD holds one (unbounded) max-register per replica
   whatever k is. *)
let loads =
  [
    { label = "k2-f1"; k = 2; readers = 4; f = 1; n = 5 };
    { label = "k6-f2"; k = 6; readers = 6; f = 2; n = 7 };
  ]

let smoke_loads = [ { label = "k2-f1"; k = 2; readers = 2; f = 1; n = 5 } ]

let algos = [ Algo.Abd; Algo.Alg2; Algo.Cds ]

(* the socket backend's stores live in child processes the sampler
   cannot see, so the committed comparison covers the two in-process
   fabrics *)
let backends = [ Transport.Threads; Transport.Domains ]

let spec_of ~backend ~algo ~ops_per_client ~seed l =
  {
    Live_bench.algo;
    k = l.k;
    readers = l.readers;
    f = l.f;
    n = l.n;
    ops_per_client;
    couriers = 3;
    chaos = false;
    (* peak-pipeline mode, like the saturation sweep *)
    reorder = false;
    backend;
    seed;
  }

(* backends adjacent per (load, algo) so the round-robined reps measure
   each threads/domains pair under the same machine weather *)
let specs ?(loads = loads) ?(ops_per_client = 150) ~seed () =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun algo ->
          List.map
            (fun backend ->
              (l, spec_of ~backend ~algo ~ops_per_client ~seed l))
            backends)
        algos)
    loads

let smoke_specs ~seed () = specs ~loads:smoke_loads ~ops_per_client:25 ~seed ()

type cell = { load : load; outcome : Live_bench.outcome }

let run ?sink ?(reps = 1) pairs =
  let outs = Live_bench.run_sweep_median ~reps ?sink (List.map snd pairs) in
  List.map2 (fun (l, _) o -> { load = l; outcome = o }) pairs outs

(* --- reporting ---------------------------------------------------------- *)

let pct o p =
  try List.assoc p o.Live_bench.pcts_us with Not_found -> 0.0

let cell_pp ppf r =
  let o = r.outcome in
  let s = o.Live_bench.spec in
  Fmt.pf ppf
    "%-10s %-7s %-6s f=%d n=%d k=%d: %7.0f ops/s p95=%.0fus space/server \
     %d cells %d B (total %d, formula %d)%s"
    (Algo.name s.Live_bench.algo)
    (Transport.backend_name s.Live_bench.backend)
    r.load.label s.Live_bench.f s.Live_bench.n s.Live_bench.k
    o.Live_bench.throughput (pct o 0.95) o.Live_bench.space_cells
    o.Live_bench.space_bytes o.Live_bench.space_cells_total
    (Algo.cells s.Live_bench.algo ~k:s.k ~f:s.f ~n:s.n)
    (if Live_bench.clean o then "" else " DIRTY")

(* --- bench rows ----------------------------------------------------------- *)

let row_name l (s : Live_bench.spec) =
  Fmt.str "%s/%s/%s" (Algo.name s.algo) (Transport.backend_name s.backend)
    l.label

let rows cells =
  List.map
    (fun c ->
      let r =
        Live_bench.row ~name:(row_name c.load c.outcome.Live_bench.spec)
          c.outcome
      in
      { r with params = ("load", Json.Str c.load.label) :: r.params })
    cells

(* one row per algo × backend × load point asked for: a missing or
   duplicated cell, or one for an unknown algo or backend, fails *)
let gate pairs =
  {
    Regemu_obs.Benchdoc.bench = "compare";
    rows = List.map (fun (l, s) -> row_name l s) pairs;
    metrics = Live_bench.metrics;
  }
